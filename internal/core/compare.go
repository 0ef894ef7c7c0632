package core

import (
	"fmt"
	"slices"

	"repro/internal/cvd"
	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// This file holds the bit-identity comparators shared by the persistence
// round-trip property tests (persistence_test.go), the kill -9 campaign
// (internal/workload/crash_test.go) and the reference benchmark's
// crash-image check (bench/):
// after a snapshot restore or a kill -9 recovery, the claim is always the
// same — every version checks out with the same rows, the same value type
// tags, and the same payloads as before.

// CheckoutVersionRows materializes one version of a CVD into cloned rows
// (the rid column included, exactly as checkout produces it) and drops the
// staging table again. The tag keeps concurrent callers' staging names apart.
func CheckoutVersionRows(e *Engine, cvdName string, v vgraph.VersionID, tag string) ([]relstore.Row, error) {
	tab := fmt.Sprintf("cmp_%s_%s_%d", cvdName, tag, v)
	out, err := e.Checkout(cvdName, []vgraph.VersionID{v}, tab)
	if err != nil {
		return nil, fmt.Errorf("checkout %s v%d: %w", cvdName, v, err)
	}
	rows := make([]relstore.Row, out.Len())
	for i := range rows {
		rows[i] = out.RowAt(i).Clone()
	}
	c, err := e.CVD(cvdName)
	if err != nil {
		return nil, err
	}
	c.DiscardCheckout(tab)
	return rows, nil
}

// RowsBitIdentical demands bit-level equality of two row sets: same order,
// same widths, same value type tags, same payloads. ctx names the comparison
// in the error.
func RowsBitIdentical(ctx string, a, b []relstore.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d rows != %d rows", ctx, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("%s row %d: width %d != %d", ctx, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			va, vb := a[i][j], b[i][j]
			if va.Type != vb.Type || va.AsString() != vb.AsString() {
				return fmt.Errorf("%s row %d col %d: %v (%v) != %v (%v)", ctx, i, j, va, va.Type, vb, vb.Type)
			}
		}
	}
	return nil
}

// EnginesEquivalent verifies that two engines hold the same CVDs, that every
// version of every CVD checks out bit-identically on both, that commit
// metadata survived, and that each CVD holds the same partitioning: the same
// partitions, each version in the same one, each with the same resident set. tag names the comparison
// in errors and keeps the two engines' staging tables apart.
func EnginesEquivalent(tag string, a, b *Engine) error {
	namesA, namesB := a.List(), b.List()
	if len(namesA) != len(namesB) {
		return fmt.Errorf("%s: CVD lists %v vs %v", tag, namesA, namesB)
	}
	for i := range namesA {
		if namesA[i] != namesB[i] {
			return fmt.Errorf("%s: CVD lists %v vs %v", tag, namesA, namesB)
		}
	}
	for _, name := range namesA {
		ca, err := a.CVD(name)
		if err != nil {
			return err
		}
		cb, err := b.CVD(name)
		if err != nil {
			return err
		}
		if !ca.Schema().Equal(cb.Schema()) {
			return fmt.Errorf("%s/%s: schema %v != %v", tag, name, ca.Schema(), cb.Schema())
		}
		if ca.NumRecords() != cb.NumRecords() {
			return fmt.Errorf("%s/%s: records %d != %d", tag, name, ca.NumRecords(), cb.NumRecords())
		}
		va, vb := ca.Versions(), cb.Versions()
		if len(va) != len(vb) {
			return fmt.Errorf("%s/%s: %d versions != %d", tag, name, len(va), len(vb))
		}
		for i := range va {
			if va[i] != vb[i] {
				return fmt.Errorf("%s/%s: version order %v vs %v", tag, name, va, vb)
			}
			rowsA, err := CheckoutVersionRows(a, name, va[i], tag+"a")
			if err != nil {
				return err
			}
			rowsB, err := CheckoutVersionRows(b, name, vb[i], tag+"b")
			if err != nil {
				return err
			}
			if err := RowsBitIdentical(fmt.Sprintf("%s/%s v%d", tag, name, va[i]), rowsA, rowsB); err != nil {
				return err
			}
			ma, oka := ca.Meta(va[i])
			mb, okb := cb.Meta(vb[i])
			if !oka || !okb {
				return fmt.Errorf("%s/%s v%d: metadata missing (%v, %v)", tag, name, va[i], oka, okb)
			}
			if ma.Message != mb.Message || ma.Author != mb.Author || !ma.CommitAt.Equal(mb.CommitAt) || ma.NumRecords != mb.NumRecords {
				return fmt.Errorf("%s/%s v%d: metadata %+v != %+v", tag, name, va[i], ma, mb)
			}
		}
		if err := samePlans(ca, cb); err != nil {
			return fmt.Errorf("%s/%s: %w", tag, name, err)
		}
	}
	return nil
}

// samePlans fails unless two CVDs hold the same partitioning: as many
// partitions, each version in the same one, and each partition's resident set
// the same records.
func samePlans(a, b *cvd.CVD) error {
	pa, ra := planOf(a)
	pb, rb := planOf(b)
	if len(ra) != len(rb) || !slices.Equal(pa, pb) {
		return fmt.Errorf("versions sit in partitions %v of %d and %v of %d", pa, len(ra), pb, len(rb))
	}
	for k := range ra {
		if !recset.Equal(ra[k], rb[k]) {
			return fmt.Errorf("partition %d holds %d records and %d, %d of them the same", k, ra[k].Len(), rb[k].Len(), recset.AndLen(ra[k], rb[k]))
		}
	}
	return nil
}

// planOf returns a CVD's partitioning: each version's partition (-1 for none,
// as every version has when the CVD is unpartitioned) and each partition's
// resident set. Both are empty when the CVD is not split-by-rlist.
func planOf(c *cvd.CVD) ([]int, []*recset.Set) {
	m, err := c.Rlist()
	if err != nil {
		return nil, nil
	}
	c.LockExclusive()
	defer c.UnlockExclusive()
	var partOf []int
	for _, v := range c.Versions() {
		partOf = append(partOf, m.PartitionOf(v))
	}
	return partOf, m.ResidentSets()
}
