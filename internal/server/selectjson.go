package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/cvd"
	"repro/internal/relstore"
)

// A select's answer leaves the server the way the catalog stores it: its body
// is appended cell by cell off the catalog's lanes into one buffer, with no
// row boxed on the way. The bytes are the ones encoding/json writes for the
// answer boxed as
//
//	{"columns":[name,...],"rows":[{"version":v,"rid":r,"values":[cell,...]},...]}
//
// followed by a newline: an integer, float or boolean cell is a JSON number or
// boolean, and any other cell is its string rendering (Value.AsString), NULL
// the empty string.

// selectBufs recycles the buffers select answers are appended into: an answer
// is written once from one buffer, and its size repeats from request to
// request.
var selectBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf caps the buffers selectBufs keeps: a rare large answer's buffer
// is garbage after its request, not memory held for the next.
const maxPooledBuf = 1 << 20

// appendSelect appends a's JSON body to b. A float cell JSON has no number
// for (NaN, ±Inf) is an error naming its column and record.
func appendSelect(b []byte, a *cvd.Answer) ([]byte, error) {
	cat := a.Catalog
	cols := cat.Schema.Columns[1:] // the rid column is not the answer's
	b = append(b, `{"columns":[`...)
	for j := range cols {
		if j > 0 {
			b = append(b, ',')
		}
		b = appendString(b, cols[j].Name)
	}
	b = append(b, `],"rows":[`...)
	i := 0
	for k, pos := range a.Sel {
		i = a.VersionOf(k, i)
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"version":`...)
		b = strconv.AppendInt(b, int64(a.Versions[i]), 10)
		b = append(b, `,"rid":`...)
		b = strconv.AppendInt(b, int64(pos)+1, 10)
		b = append(b, `,"values":[`...)
		for j := range cols {
			if j > 0 {
				b = append(b, ',')
			}
			v := cat.At(int(pos), j+1)
			var ok bool
			if b, ok = appendValue(b, v); !ok {
				return b, fmt.Errorf("column %q of record %d holds %v, which JSON has no number for", cols[j].Name, pos+1, v.F)
			}
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}\n"...), nil
}

// appendValue appends one cell; ok is false for a non-finite float.
func appendValue(b []byte, v relstore.Value) (_ []byte, ok bool) {
	switch v.Type {
	case relstore.TypeInt:
		return strconv.AppendInt(b, v.I, 10), true
	case relstore.TypeFloat:
		return appendFloat(b, v.F)
	case relstore.TypeBool:
		return strconv.AppendBool(b, v.B), true
	case relstore.TypeNull:
		return append(b, `""`...), true
	default:
		return appendString(b, v.AsString()), true
	}
}

// appendFloat appends f as encoding/json formats a float64: the shortest
// decimal that reads back as f, in 'f' notation for magnitudes in [1e-6, 1e21)
// and zero, in 'e' notation outside it with a one-digit negative exponent
// unpadded (1e-7, not 1e-07). ok is false for NaN and ±Inf.
func appendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// appendString appends s as a JSON string. Printable ASCII other than the
// quote, the backslash and encoding/json's HTML escapes (<, >, &) is copied as
// is; anything else goes through json.Marshal, which escapes it exactly.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
