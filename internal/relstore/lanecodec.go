package relstore

// Lane codecs: lightweight per-lane encodings used by the durable chunk
// writer. Each lane of a column band is encoded independently under a
// one-byte encoding id recorded in the chunk header; a cheap sampler picks
// the encoding per lane. All encodings are invertible for arbitrary input —
// the sampler only affects size, never correctness — so a "wrong" pick can
// cost bytes but can never corrupt data.
//
// Decoders are corrupt-input safe: every count read from the wire is bounded
// by the remaining input before allocation, and malformed input returns an
// error instead of panicking. The expected element count n always comes from
// the (CRC-validated) chunk header, never from the lane bytes themselves.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Lane encoding ids, one namespace per lane kind.
const (
	TagEncRaw uint8 = 0 // n bytes verbatim
	TagEncRLE uint8 = 1 // runs of (uvarint count, tag byte)

	IntEncRaw      uint8 = 0 // n × 8-byte little-endian
	IntEncVarint   uint8 = 1 // n × zigzag varint
	IntEncDeltaRLE uint8 = 2 // first value varint, then (uvarint runLen, varint delta) runs
	IntEncPack     uint8 = 3 // varint min, width byte, n × width-bit (v-min), LSB-first

	StrEncRaw  uint8 = 0 // n × (uvarint len, bytes)
	StrEncDict uint8 = 1 // uvarint dictLen, dict entries, n × uvarint index

	ArrEncRaw   uint8 = 0 // n × (uvarint len, len × varint)
	ArrEncDelta uint8 = 1 // n × (uvarint len, first varint, len-1 × varint delta)
)

// laneSample caps how many values the encoding samplers inspect.
const laneSample = 512

// dictMaxEntries caps the dictionary size for StrEncDict; lanes with more
// distinct values fall back to raw.
const dictMaxEntries = 4096

// ---- tag lane ---------------------------------------------------------------

// PickTagEnc chooses the tag-lane encoding: RLE when the lane is dominated by
// long single-tag runs (the overwhelmingly common case — a column is usually
// all one type), raw otherwise.
func PickTagEnc(tags []uint8) uint8 {
	n := len(tags)
	if n < 8 {
		return TagEncRaw
	}
	runs := 1
	for i := 1; i < n; i++ {
		if tags[i] != tags[i-1] {
			runs++
		}
	}
	if runs*4 <= n {
		return TagEncRLE
	}
	return TagEncRaw
}

// AppendTagLane appends the encoded tag lane to dst.
func AppendTagLane(dst []byte, encoding uint8, tags []uint8) []byte {
	switch encoding {
	case TagEncRLE:
		for i := 0; i < len(tags); {
			j := i + 1
			for j < len(tags) && tags[j] == tags[i] {
				j++
			}
			dst = binary.AppendUvarint(dst, uint64(j-i))
			dst = append(dst, tags[i])
			i = j
		}
		return dst
	default:
		return append(dst, tags...)
	}
}

// DecodeTagLane decodes n tags from src, appending to dst. It returns the
// grown slice and the number of input bytes consumed.
func DecodeTagLane(dst []uint8, src []byte, encoding uint8, n int) ([]uint8, int, error) {
	switch encoding {
	case TagEncRaw:
		if len(src) < n {
			return nil, 0, fmt.Errorf("relstore: raw tag lane: need %d bytes, have %d", n, len(src))
		}
		return append(dst, src[:n]...), n, nil
	case TagEncRLE:
		off := 0
		got := 0
		for got < n {
			run, w := binary.Uvarint(src[off:])
			if w <= 0 {
				return nil, 0, fmt.Errorf("relstore: rle tag lane: bad run length at offset %d", off)
			}
			off += w
			if run == 0 || run > uint64(n-got) {
				return nil, 0, fmt.Errorf("relstore: rle tag lane: run %d exceeds remaining %d", run, n-got)
			}
			if off >= len(src) {
				return nil, 0, fmt.Errorf("relstore: rle tag lane: truncated run tag")
			}
			tag := src[off]
			off++
			for i := uint64(0); i < run; i++ {
				dst = append(dst, tag)
			}
			got += int(run)
		}
		return dst, off, nil
	default:
		return nil, 0, fmt.Errorf("relstore: unknown tag lane encoding %d", encoding)
	}
}

// ---- int lane ---------------------------------------------------------------

// PickIntEnc chooses the int-lane encoding from a bounded sample: delta+RLE
// when the lane is (near-)sorted with repetitive deltas (rid and version
// columns), frame-of-reference bit packing when the value range is narrow
// relative to 64 bits (attribute columns), varint when magnitudes are small,
// raw otherwise.
func PickIntEnc(vals []int64) uint8 {
	n := len(vals)
	if n == 0 {
		return IntEncRaw
	}
	m := n
	if m > laneSample {
		m = laneSample
	}
	// Estimate bytes/value for each candidate over a contiguous prefix
	// (delta runs need contiguity).
	varintBytes := 0
	deltaRuns := 1
	deltaBytes := varintLen(vals[0])
	var prevDelta int64
	lo, hi := vals[0], vals[0]
	for i := 0; i < m; i++ {
		varintBytes += varintLen(vals[i])
		if vals[i] < lo {
			lo = vals[i]
		}
		if vals[i] > hi {
			hi = vals[i]
		}
		if i == 0 {
			continue
		}
		d := vals[i] - vals[i-1]
		if i == 1 || d != prevDelta {
			if i > 1 {
				deltaRuns++
			}
			deltaBytes += 1 + varintLen(d) // uvarint run length (≈1) + delta
			prevDelta = d
		}
	}
	// Amortize the run-length overhead: a run costs ~2 bytes regardless of
	// how many values it covers.
	deltaPer := float64(deltaBytes) / float64(m)
	varintPer := float64(varintBytes) / float64(m)
	// AppendIntLane recomputes the exact range over the full lane; the
	// sampled width only drives the choice, never correctness.
	packPer := float64(packWidth(lo, hi))/8 + float64(2+varintLen(lo))/float64(m)
	best, bestPer := IntEncRaw, 8.0
	if varintPer < bestPer {
		best, bestPer = IntEncVarint, varintPer
	}
	if packPer < bestPer {
		best, bestPer = IntEncPack, packPer
	}
	if m > 2 && deltaPer < bestPer {
		best = IntEncDeltaRLE
	}
	return best
}

// packWidth returns the bit width needed for values in [lo, hi]. The range
// is computed in two's-complement uint64 space, so any int64 pair is valid.
func packWidth(lo, hi int64) int {
	return bits.Len64(uint64(hi) - uint64(lo))
}

// varintLen returns the encoded size of v as a zigzag varint.
func varintLen(v int64) int {
	u := uint64(v<<1) ^ uint64(v>>63)
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// AppendIntLane appends the encoded int lane to dst.
func AppendIntLane(dst []byte, encoding uint8, vals []int64) []byte {
	switch encoding {
	case IntEncVarint:
		for _, v := range vals {
			dst = binary.AppendVarint(dst, v)
		}
		return dst
	case IntEncDeltaRLE:
		if len(vals) == 0 {
			return dst
		}
		dst = binary.AppendVarint(dst, vals[0])
		i := 1
		for i < len(vals) {
			d := vals[i] - vals[i-1]
			j := i + 1
			for j < len(vals) && vals[j]-vals[j-1] == d {
				j++
			}
			dst = binary.AppendUvarint(dst, uint64(j-i))
			dst = binary.AppendVarint(dst, d)
			i = j
		}
		return dst
	case IntEncPack:
		if len(vals) == 0 {
			return dst
		}
		// The exact range comes from the full lane here, not the picker's
		// sample, so out-of-sample values can never be truncated.
		lo, hi := vals[0], vals[0]
		for _, v := range vals[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		width := packWidth(lo, hi)
		dst = binary.AppendVarint(dst, lo)
		dst = append(dst, byte(width))
		if width == 0 {
			return dst
		}
		start := len(dst)
		packed := append(dst, make([]byte, (len(vals)*width+7)/8)...)
		mask := ^uint64(0)
		if width < 64 {
			mask = uint64(1)<<width - 1
		}
		for i, v := range vals {
			d := (uint64(v) - uint64(lo)) & mask
			bit := i * width
			bi := start + bit>>3
			shift := uint(bit & 7)
			word := d << shift
			for k := 0; k < 8 && word != 0; k++ {
				packed[bi+k] |= byte(word)
				word >>= 8
			}
			// Bits pushed past the 64-bit word land in a ninth byte.
			if shift > 0 && shift+uint(width) > 64 {
				packed[bi+8] |= byte(d >> (64 - shift))
			}
		}
		return packed
	default:
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
		return dst
	}
}

// DecodeIntLane decodes n int64 values from src, appending to dst.
func DecodeIntLane(dst []int64, src []byte, encoding uint8, n int) ([]int64, int, error) {
	switch encoding {
	case IntEncRaw:
		if len(src) < n*8 {
			return nil, 0, fmt.Errorf("relstore: raw int lane: need %d bytes, have %d", n*8, len(src))
		}
		for i := 0; i < n; i++ {
			dst = append(dst, int64(binary.LittleEndian.Uint64(src[i*8:])))
		}
		return dst, n * 8, nil
	case IntEncVarint:
		off := 0
		for i := 0; i < n; i++ {
			v, w := binary.Varint(src[off:])
			if w <= 0 {
				return nil, 0, fmt.Errorf("relstore: varint int lane: bad value %d at offset %d", i, off)
			}
			off += w
			dst = append(dst, v)
		}
		return dst, off, nil
	case IntEncDeltaRLE:
		if n == 0 {
			return dst, 0, nil
		}
		first, w := binary.Varint(src)
		if w <= 0 {
			return nil, 0, fmt.Errorf("relstore: delta int lane: bad first value")
		}
		off := w
		dst = append(dst, first)
		prev := first
		got := 1
		for got < n {
			run, w := binary.Uvarint(src[off:])
			if w <= 0 {
				return nil, 0, fmt.Errorf("relstore: delta int lane: bad run length at offset %d", off)
			}
			off += w
			if run == 0 || run > uint64(n-got) {
				return nil, 0, fmt.Errorf("relstore: delta int lane: run %d exceeds remaining %d", run, n-got)
			}
			d, w := binary.Varint(src[off:])
			if w <= 0 {
				return nil, 0, fmt.Errorf("relstore: delta int lane: bad delta at offset %d", off)
			}
			off += w
			for i := uint64(0); i < run; i++ {
				prev += d
				dst = append(dst, prev)
			}
			got += int(run)
		}
		return dst, off, nil
	case IntEncPack:
		if n == 0 {
			return dst, 0, nil
		}
		lo, w := binary.Varint(src)
		if w <= 0 {
			return nil, 0, fmt.Errorf("relstore: packed int lane: bad minimum")
		}
		off := w
		if off >= len(src) {
			return nil, 0, fmt.Errorf("relstore: packed int lane: truncated width")
		}
		width := int(src[off])
		off++
		if width > 64 {
			return nil, 0, fmt.Errorf("relstore: packed int lane: width %d", width)
		}
		if width == 0 {
			for i := 0; i < n; i++ {
				dst = append(dst, lo)
			}
			return dst, off, nil
		}
		need := (n*width + 7) / 8
		if len(src)-off < need {
			return nil, 0, fmt.Errorf("relstore: packed int lane: need %d bytes, have %d", need, len(src)-off)
		}
		packed := src[off : off+need]
		mask := ^uint64(0)
		if width < 64 {
			mask = uint64(1)<<width - 1
		}
		for i := 0; i < n; i++ {
			bit := i * width
			bi := bit >> 3
			shift := uint(bit & 7)
			var word uint64
			if bi+8 <= len(packed) {
				word = binary.LittleEndian.Uint64(packed[bi:])
			} else {
				for k := 0; bi+k < len(packed); k++ {
					word |= uint64(packed[bi+k]) << (8 * k)
				}
			}
			d := word >> shift
			if shift > 0 && shift+uint(width) > 64 && bi+8 < len(packed) {
				d |= uint64(packed[bi+8]) << (64 - shift)
			}
			dst = append(dst, int64(uint64(lo)+(d&mask)))
		}
		return dst, off + need, nil
	default:
		return nil, 0, fmt.Errorf("relstore: unknown int lane encoding %d", encoding)
	}
}

// ---- float lane -------------------------------------------------------------

// AppendFloatLane appends the raw float lane (8-byte little-endian bits).
func AppendFloatLane(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeFloatLane decodes n float64 values from src, appending to dst.
func DecodeFloatLane(dst []float64, src []byte, n int) ([]float64, int, error) {
	if len(src) < n*8 {
		return nil, 0, fmt.Errorf("relstore: float lane: need %d bytes, have %d", n*8, len(src))
	}
	for i := 0; i < n; i++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:])))
	}
	return dst, n * 8, nil
}

// ---- string lane ------------------------------------------------------------

// PickStrEnc chooses the string-lane encoding. A bounded sample screens for
// low cardinality; when the sample looks dictionary-friendly the full lane is
// scanned (with an abort cap) so the decision is definitive — AppendStrLane
// relies on the picker's answer and builds the dictionary unconditionally.
func PickStrEnc(vals []string) uint8 {
	n := len(vals)
	if n < 16 {
		return StrEncRaw
	}
	m := n
	if m > 256 {
		m = 256
	}
	sample := make(map[string]struct{}, 64)
	for i := 0; i < m; i++ {
		sample[vals[i]] = struct{}{}
		if len(sample) > 64 {
			return StrEncRaw
		}
	}
	// Sample is low-cardinality; confirm over the full lane.
	limit := dictMaxEntries
	if quarter := n / 4; quarter < limit {
		limit = quarter
	}
	if limit < 1 {
		limit = 1
	}
	for i := m; i < n; i++ {
		sample[vals[i]] = struct{}{}
		if len(sample) > limit {
			return StrEncRaw
		}
	}
	return StrEncDict
}

// AppendStrLane appends the encoded string lane to dst.
func AppendStrLane(dst []byte, encoding uint8, vals []string) []byte {
	switch encoding {
	case StrEncDict:
		dict := make(map[string]uint64, 64)
		order := make([]string, 0, 64)
		for _, s := range vals {
			if _, ok := dict[s]; !ok {
				dict[s] = uint64(len(order))
				order = append(order, s)
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(order)))
		for _, s := range order {
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
		for _, s := range vals {
			dst = binary.AppendUvarint(dst, dict[s])
		}
		return dst
	default:
		for _, s := range vals {
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
		return dst
	}
}

// DecodeStrLane decodes n strings from src, appending to dst.
func DecodeStrLane(dst []string, src []byte, encoding uint8, n int) ([]string, int, error) {
	readStr := func(off int) (string, int, error) {
		l, w := binary.Uvarint(src[off:])
		if w <= 0 {
			return "", 0, fmt.Errorf("relstore: string lane: bad length at offset %d", off)
		}
		off += w
		if l > uint64(len(src)-off) {
			return "", 0, fmt.Errorf("relstore: string lane: length %d exceeds remaining %d", l, len(src)-off)
		}
		return string(src[off : off+int(l)]), off + int(l), nil
	}
	switch encoding {
	case StrEncRaw:
		off := 0
		for i := 0; i < n; i++ {
			s, next, err := readStr(off)
			if err != nil {
				return nil, 0, err
			}
			dst = append(dst, s)
			off = next
		}
		return dst, off, nil
	case StrEncDict:
		dictLen, w := binary.Uvarint(src)
		if w <= 0 {
			return nil, 0, fmt.Errorf("relstore: dict string lane: bad dictionary size")
		}
		off := w
		// Each dictionary entry takes at least one byte on the wire.
		if dictLen > uint64(len(src)-off) {
			return nil, 0, fmt.Errorf("relstore: dict string lane: implausible dictionary size %d", dictLen)
		}
		dict := make([]string, 0, dictLen)
		for i := uint64(0); i < dictLen; i++ {
			s, next, err := readStr(off)
			if err != nil {
				return nil, 0, err
			}
			dict = append(dict, s)
			off = next
		}
		for i := 0; i < n; i++ {
			idx, w := binary.Uvarint(src[off:])
			if w <= 0 {
				return nil, 0, fmt.Errorf("relstore: dict string lane: bad index %d at offset %d", i, off)
			}
			off += w
			if idx >= uint64(len(dict)) {
				return nil, 0, fmt.Errorf("relstore: dict string lane: index %d out of range %d", idx, len(dict))
			}
			dst = append(dst, dict[idx])
		}
		return dst, off, nil
	default:
		return nil, 0, fmt.Errorf("relstore: unknown string lane encoding %d", encoding)
	}
}

// ---- int-array lane ---------------------------------------------------------

// PickArrEnc chooses the array-lane encoding: per-array delta varints when
// the sampled arrays are sorted (rlist columns — deltas stay small), raw
// varints otherwise.
func PickArrEnc(arrs [][]int64) uint8 {
	n := len(arrs)
	if n == 0 {
		return ArrEncRaw
	}
	m := n
	if m > 64 {
		m = 64
	}
	for i := 0; i < m; i++ {
		a := arrs[i]
		for j := 1; j < len(a); j++ {
			if a[j] < a[j-1] {
				return ArrEncRaw
			}
		}
	}
	return ArrEncDelta
}

// AppendArrLane appends the encoded int-array lane to dst.
func AppendArrLane(dst []byte, encoding uint8, arrs [][]int64) []byte {
	for _, a := range arrs {
		dst = binary.AppendUvarint(dst, uint64(len(a)))
		switch encoding {
		case ArrEncDelta:
			prev := int64(0)
			for i, v := range a {
				if i == 0 {
					dst = binary.AppendVarint(dst, v)
				} else {
					dst = binary.AppendVarint(dst, v-prev)
				}
				prev = v
			}
		default:
			for _, v := range a {
				dst = binary.AppendVarint(dst, v)
			}
		}
	}
	return dst
}

// DecodeArrLane decodes n int arrays from src, appending to dst.
func DecodeArrLane(dst [][]int64, src []byte, encoding uint8, n int) ([][]int64, int, error) {
	if encoding != ArrEncRaw && encoding != ArrEncDelta {
		return nil, 0, fmt.Errorf("relstore: unknown array lane encoding %d", encoding)
	}
	off := 0
	for i := 0; i < n; i++ {
		l, w := binary.Uvarint(src[off:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("relstore: array lane: bad length at offset %d", off)
		}
		off += w
		// Every element takes at least one varint byte.
		if l > uint64(len(src)-off) {
			return nil, 0, fmt.Errorf("relstore: array lane: length %d exceeds remaining %d", l, len(src)-off)
		}
		var a []int64
		if l > 0 {
			a = make([]int64, 0, l)
			prev := int64(0)
			for j := uint64(0); j < l; j++ {
				v, w := binary.Varint(src[off:])
				if w <= 0 {
					return nil, 0, fmt.Errorf("relstore: array lane: bad element at offset %d", off)
				}
				off += w
				if encoding == ArrEncDelta && j > 0 {
					v += prev
				}
				a = append(a, v)
				prev = v
			}
		}
		dst = append(dst, a)
	}
	return dst, off, nil
}
