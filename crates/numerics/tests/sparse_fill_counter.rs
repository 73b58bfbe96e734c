//! A sparse factorization records its count and the nonzeros of its
//! factors. Counters are process-global, so this binary holds one test.

use rfsim_numerics::sparse::Triplets;
use rfsim_telemetry as telemetry;

#[test]
fn factorization_records_fill_nnz() {
    let n = 40;
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, 2.0);
        if i > 0 {
            t.push(i, i - 1, -1.0);
            t.push(i - 1, i, -1.0);
        }
    }
    let a = t.to_csr();
    telemetry::set_mode(telemetry::Mode::Report);
    let (lu, counts) = telemetry::counted(|| a.lu());
    telemetry::set_mode(telemetry::Mode::Off);
    let lu = lu.expect("the 1-D Laplacian is nonsingular");
    assert_eq!(counts.get("lu.sparse.factorizations"), Some(&1));
    assert_eq!(counts.get("lu.sparse.fill_nnz"), Some(&(lu.factor_nnz() as u64)));
}
