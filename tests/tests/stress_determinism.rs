//! Mid-scale deterministic stress: all three backends must produce
//! bit-identical results through a chained pipeline of every operation
//! on a few-thousand-nnz workload (large enough to hit the radix-sort
//! parallel path, multiple SpGEMM bins, and merge-path row splitting).

use spbla_core::{Instance, Matrix};
use spbla_integration::{all_backends, pseudo_pairs};

fn pipeline(inst: &Instance, pa: &[(u32, u32)], pb: &[(u32, u32)], n: u32) -> Vec<(u32, u32)> {
    let a = Matrix::from_pairs(inst, n, n, pa).unwrap();
    let b = Matrix::from_pairs(inst, n, n, pb).unwrap();
    // (AB + Bᵀ) ∧ (A + B), then a submatrix, then one more hop.
    let ab = a.mxm(&b).unwrap();
    let bt = b.transpose().unwrap();
    let left = ab.ewise_add(&bt).unwrap();
    let right = a.ewise_add(&b).unwrap();
    let masked = left.ewise_mult(&right).unwrap();
    let window = masked.submatrix(n / 8, n / 8, n / 2, n / 2).unwrap();
    let hop = window.mxm(&window).unwrap();
    hop.read()
}

#[test]
fn chained_pipeline_identical_across_backends() {
    let n = 600u32;
    let pa = pseudo_pairs(n, 7000, 0xA11CE);
    let pb = pseudo_pairs(n, 7000, 0xB0B);
    let mut reference: Option<Vec<(u32, u32)>> = None;
    for inst in all_backends() {
        let got = pipeline(&inst, &pa, &pb, n);
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(r, &got, "backend {:?} diverged", inst.backend()),
        }
    }
    let r = reference.unwrap();
    assert!(!r.is_empty(), "stress pipeline should produce output");
}

#[test]
fn closure_on_mid_size_graph_identical() {
    let n = 400u32;
    // Sparse DAG-ish graph (forward edges only) keeps the closure
    // non-trivial but bounded.
    let pairs: Vec<(u32, u32)> = pseudo_pairs(n, 1200, 7)
        .into_iter()
        .filter(|&(u, v)| u < v)
        .collect();
    let mut reference_pairs: Option<Vec<(u32, u32)>> = None;
    for inst in all_backends() {
        let a = Matrix::from_pairs(&inst, n, n, &pairs).unwrap();
        let c = a.transitive_closure().unwrap();
        let got = c.read();
        match &reference_pairs {
            None => reference_pairs = Some(got),
            Some(r) => assert_eq!(r, &got, "{:?}", inst.backend()),
        }
    }
    assert!(
        reference_pairs.unwrap().len() > pairs.len(),
        "closure must grow"
    );
}

#[test]
fn kron_chain_identical_across_backends() {
    let pa = pseudo_pairs(40, 200, 3);
    let pb = pseudo_pairs(25, 100, 4);
    let mut reference: Option<Vec<u32>> = None;
    for inst in all_backends() {
        let a = Matrix::from_pairs(&inst, 40, 40, &pa).unwrap();
        let b = Matrix::from_pairs(&inst, 25, 25, &pb).unwrap();
        let k = a.kron(&b).unwrap();
        assert_eq!(k.shape(), (1000, 1000));
        let kt = k.transpose().unwrap();
        let got = kt.reduce_to_column().unwrap().indices().to_vec();
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(r, &got, "{:?}", inst.backend()),
        }
    }
}
