//! Receptive-field halo computation over operator sparsity.
//!
//! The LHNN forward is a fixed stack of sparse aggregations (`H`, `D⁻¹H`,
//! `B⁻¹Hᵀ`, `P⁻¹A`) interleaved with row-local dense layers, so a change
//! confined to a set of dirty rows can only influence rows reachable
//! through the *sparsity pattern* of those operators — one hop per
//! aggregation, ≤5 hops for the whole network (2 HyperMP + 3 LatticeMP
//! layers). This module provides the primitive set algebra for tracking
//! that influence exactly:
//!
//! * [`grow`] — one structural hop through an aggregation `y = S·x`, as
//!   the splice path takes it: the dirty output rows `keep` plus every
//!   row of `S` that reads a dirty input row. It marks the dirty inputs
//!   in a flag vector and sweeps the rows of `S` itself once, so it needs
//!   no transpose, no sort and no merge, and it reads the operator that
//!   the aggregation actually uses — ablated or sampled operator sets
//!   replace matrices asymmetrically, so a structurally "dual" sibling
//!   would not do.
//! * [`dilate`] — the same hop seen from the other side: the union of
//!   column indices of the listed rows of a CSR matrix. Row `r` of `S`
//!   reads column `c` exactly when row `c` of `Sᵀ` lists `r`, so
//!   `grow(S, d, k) == union_sorted(k, &dilate(&Sᵀ, d))` — the oracle
//!   the tests below check.
//! * [`union_sorted`] — merge two sorted dirty sets.
//!
//! All row lists are sorted and duplicate-free, the form the masked
//! row-subset kernels in `neurograd::kernels` require. Dilation at a
//! lattice boundary clips naturally: an edge or corner G-cell simply has
//! fewer lattice neighbours, so the halo never leaves the grid.

use neurograd::CsrMatrix;

/// One structural hop through the aggregation `y = S·x`: the sorted,
/// duplicate-free union of `keep` and every row of `s` that reads a
/// column listed in `from`.
///
/// With `from` the dirty input rows and `keep` the output rows already
/// dirty, this is exactly the set of output rows whose value can change.
/// It equals `union_sorted(keep, &dilate(&s.transpose(), from))`, but
/// marks `from` and sweeps the rows of `s` once instead of building the
/// transpose: rows come out in order, each at most once.
///
/// # Panics
///
/// Panics if a listed column is out of bounds for `s`.
pub fn grow(s: &CsrMatrix, from: &[usize], keep: &[usize]) -> Vec<usize> {
    if from.is_empty() {
        return keep.to_vec();
    }
    let mut marked = vec![false; s.cols()];
    for &c in from {
        assert!(c < s.cols(), "grow: column {} out of bounds for {}x{}", c, s.rows(), s.cols());
        marked[c] = true;
    }
    let mut out = Vec::with_capacity(keep.len() + from.len());
    let mut kept = keep.iter().copied().peekable();
    for r in 0..s.rows() {
        if kept.next_if_eq(&r).is_some() || s.row_slices(r).0.iter().any(|&c| marked[c]) {
            out.push(r);
        }
    }
    out.extend(kept);
    out
}

/// One structural hop: the sorted, duplicate-free union of the column
/// indices of the listed rows of `m`.
///
/// For a sparse aggregation `y = S·x` with dirty input rows `d`, the
/// output rows that read a dirty row are exactly `dilate(Sᵀ, d)`; the
/// splice path computes the same set with [`grow`], which needs no
/// transpose.
///
/// # Panics
///
/// Panics if a listed row is out of bounds for `m`.
pub fn dilate(m: &CsrMatrix, rows: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(rows.len().saturating_mul(4));
    for &r in rows {
        assert!(r < m.rows(), "dilate: row {} out of bounds for {}x{}", r, m.rows(), m.cols());
        out.extend(m.row_entries(r).map(|(c, _)| c));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Merges two sorted, duplicate-free index lists into one.
pub fn union_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Sorts and deduplicates an arbitrary index list into canonical form.
pub fn canonicalize(mut rows: Vec<usize>) -> Vec<usize> {
    rows.sort_unstable();
    rows.dedup();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurograd::CsrMatrix;

    fn chain(n: usize) -> CsrMatrix {
        // path graph adjacency: i ~ i±1
        let mut t = Vec::new();
        for i in 0..n {
            if i > 0 {
                t.push((i, i - 1, 1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, 1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn dilate_is_one_hop() {
        let m = chain(6);
        assert_eq!(dilate(&m, &[2]), vec![1, 3]);
        assert_eq!(dilate(&m, &[0]), vec![1], "boundary row clips");
        assert_eq!(dilate(&m, &[5]), vec![4], "boundary row clips");
        assert_eq!(dilate(&m, &[1, 4]), vec![0, 2, 3, 5]);
        assert!(dilate(&m, &[]).is_empty());
    }

    #[test]
    fn grow_is_one_hop_without_a_transpose() {
        let m = chain(6);
        assert_eq!(grow(&m, &[2], &[]), vec![1, 3]);
        assert_eq!(grow(&m, &[2], &[2]), vec![1, 2, 3]);
        assert_eq!(grow(&m, &[0], &[5]), vec![1, 5], "boundary row clips");
        assert_eq!(grow(&m, &[], &[4]), vec![4]);
        assert!(grow(&m, &[], &[]).is_empty());
        assert!(!m.transpose_cache_warm(), "grow must not build the transpose");
    }

    /// A `rows × cols` pattern from sampled `(row, col)` codes; empty rows
    /// and empty columns arise whenever no code lands on them.
    fn sampled(rows: usize, cols: usize, codes: &[(usize, usize)]) -> CsrMatrix {
        let t: Vec<(usize, usize, f32)> =
            codes.iter().map(|&(r, c)| (r % rows, c % cols, 1.0)).collect();
        CsrMatrix::from_triplets(rows, cols, &t)
    }

    /// An index set over `0..n`: empty, full, or the sampled bits.
    fn sampled_set(n: usize, mode: u8, bits: &[u8]) -> Vec<usize> {
        match mode {
            0 => Vec::new(),
            1 => (0..n).collect(),
            _ => (0..n).filter(|&i| bits[i % bits.len()] & (1 << (i % 8)) != 0).collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `grow` agrees with the transpose-based hop it replaces on
        /// rectangular patterns, including empty rows, empty and full
        /// sets, `keep == from` and `keep` rows past the last row of `s`.
        #[test]
        fn grow_matches_dilate_of_the_transpose(
            rows in 1usize..12,
            cols in 1usize..12,
            codes in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
            from_mode in 0u8..4,
            keep_mode in 0u8..5,
            from_bits in proptest::collection::vec(0u8..=255, 1..4),
            keep_bits in proptest::collection::vec(0u8..=255, 1..4),
        ) {
            let s = sampled(rows, cols, &codes);
            let from = sampled_set(cols, from_mode, &from_bits);
            let keep =
                if keep_mode == 4 { from.clone() } else { sampled_set(rows, keep_mode, &keep_bits) };
            let oracle = union_sorted(&keep, &dilate(&s.transpose(), &from));
            let entries: Vec<_> = s.iter().collect();
            proptest::prop_assert_eq!(grow(&s, &from, &keep), oracle, "s = {:?}", entries);
        }
    }

    #[test]
    fn union_sorted_merges() {
        assert_eq!(union_sorted(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(union_sorted(&[], &[4]), vec![4]);
        assert_eq!(union_sorted(&[4], &[]), vec![4]);
        let same = [0, 9];
        assert_eq!(union_sorted(&same, &same), vec![0, 9]);
    }

    #[test]
    fn canonicalize_sorts_and_dedups() {
        assert_eq!(canonicalize(vec![5, 1, 5, 0, 1]), vec![0, 1, 5]);
    }
}
