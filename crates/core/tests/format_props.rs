//! Property tests over the storage formats: conversions are lossless,
//! invariants hold after every operation, and the memory formulas match
//! the paper's.

use proptest::prelude::*;

use spbla_core::{CooBool, CsrBool, DenseBool};

fn pairs(n: u32, max_nnz: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..n, 0..n), 0..max_nnz)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conversion_roundtrips(p in pairs(40, 200)) {
        let csr = CsrBool::from_pairs(40, 40, &p).unwrap();
        // CSR → COO → CSR
        let coo = CooBool::from(&csr);
        prop_assert_eq!(&CsrBool::from(&coo), &csr);
        // CSR → Dense → CSR
        let dense = DenseBool::from(&csr);
        prop_assert_eq!(&CsrBool::from(&dense), &csr);
        // Key roundtrip through COO.
        let keys = coo.to_keys();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(CooBool::from_keys(40, 40, &keys), coo);
    }

    #[test]
    fn invariants_hold_after_ops(pa in pairs(20, 80), pb in pairs(20, 80)) {
        let a = CsrBool::from_pairs(20, 20, &pa).unwrap();
        let b = CsrBool::from_pairs(20, 20, &pb).unwrap();
        for m in [
            a.mxm(&b).unwrap(),
            a.ewise_add(&b).unwrap(),
            a.ewise_mult(&b).unwrap(),
            a.transpose(),
            a.submatrix(3, 5, 10, 12).unwrap(),
        ] {
            prop_assert!(m.validate().is_ok(), "{:?}", m.validate());
        }
        let k = a.kron(&b).unwrap();
        prop_assert!(k.validate().is_ok());
        prop_assert_eq!(k.nnz(), a.nnz() * b.nnz());
    }

    #[test]
    fn memory_formulas(p in pairs(64, 256)) {
        let csr = CsrBool::from_pairs(64, 64, &p).unwrap();
        let coo = CooBool::from(&csr);
        prop_assert_eq!(csr.memory_bytes(), (64 + 1 + csr.nnz()) * 4);
        prop_assert_eq!(coo.memory_bytes(), 2 * csr.nnz() * 4);
    }

    #[test]
    fn submatrix_composition(p in pairs(30, 120)) {
        // (M[2.., 3..])[1.., 1..] == M[3.., 4..] over matching windows.
        let m = CsrBool::from_pairs(30, 30, &p).unwrap();
        let outer = m.submatrix(2, 3, 20, 20).unwrap();
        let nested = outer.submatrix(1, 1, 10, 10).unwrap();
        let direct = m.submatrix(3, 4, 10, 10).unwrap();
        prop_assert_eq!(nested, direct);
    }

    #[test]
    fn transpose_preserves_nnz_and_involutes(p in pairs(25, 120)) {
        let m = CsrBool::from_pairs(25, 25, &p).unwrap();
        let t = m.transpose();
        prop_assert_eq!(t.nnz(), m.nnz());
        let dense = DenseBool::from(&m);
        prop_assert_eq!(dense.transpose().to_pairs(), t.to_pairs());
        prop_assert_eq!(t.transpose(), m);
    }

    #[test]
    fn reductions_consistent_between_formats(p in pairs(25, 100)) {
        let csr = CsrBool::from_pairs(25, 25, &p).unwrap();
        // Brute force over the dense oracle.
        let dense = DenseBool::from(&csr);
        let rows: Vec<u32> = (0..25).filter(|&i| (0..25).any(|j| dense.get(i, j))).collect();
        prop_assert_eq!(csr.reduce_to_column(), rows);
        let cols: Vec<u32> = (0..25).filter(|&j| (0..25).any(|i| dense.get(i, j))).collect();
        prop_assert_eq!(csr.reduce_to_row(), cols);
        // vxm over a random index set.
        let set: Vec<u32> = (0..25).filter(|v| v % 3 == 0).collect();
        let reached: Vec<u32> = (0..25).filter(|&j| set.iter().any(|&i| dense.get(i, j))).collect();
        prop_assert_eq!(csr.vxm(&set), reached);
    }
}
