//! `det_allreduce_sums` stays bit-deterministic once its `nparts · K`
//! buffer outgrows one collective (255 elements): each sum is still the
//! application-rank-order sum, as for a single value.

use ft_cluster::FaultSchedule;
use ft_core::{run_ft_job, FtApp, FtConfig, FtCtx, FtResult, RecoveryPlan, WorldLayout};
use ft_gaspi::{GaspiConfig, GaspiWorld};
use ft_sparse::det_allreduce_sums;

const PARTS: u32 = 8;
/// `PARTS · K` = 256 slots: two collectives.
const K: usize = 32;

/// Magnitudes spread over 18 decades, so the order of the additions shows
/// in the rounding.
fn value(app: u32, j: usize) -> f64 {
    let x = f64::from(app) * 0.7 + j as f64;
    x.sin() * 10f64.powi(3 * ((app as i32 + j as i32) % 7))
}

struct Sums(Option<[f64; K]>);

impl FtApp for Sums {
    type Summary = [f64; K];

    fn setup(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        Ok(())
    }

    fn join_as_rescue(&mut self, _ctx: &FtCtx) -> FtResult<()> {
        Ok(())
    }

    fn step(&mut self, ctx: &FtCtx, _iter: u64) -> FtResult<bool> {
        let me = ctx.app_rank();
        self.0 = Some(det_allreduce_sums(ctx, std::array::from_fn(|j| value(me, j)))?);
        Ok(true)
    }

    fn rewire(&mut self, _ctx: &FtCtx, _plan: &RecoveryPlan) -> FtResult<()> {
        Ok(())
    }

    fn finalize(&mut self, _ctx: &FtCtx) -> FtResult<[f64; K]> {
        Ok(self.0.expect("one step ran"))
    }
}

#[test]
fn sums_past_one_collective_are_each_in_rank_order() {
    let layout = WorldLayout::new(PARTS, 1);
    let world = GaspiWorld::new(GaspiConfig::deterministic(layout.total()));
    let cfg = FtConfig::builder(layout).max_iters(1).build().unwrap();
    let report = run_ft_job(&world, cfg, FaultSchedule::none(), |_| Sums(None));
    assert!(report.first_error().is_none(), "{:?}", report.first_error());
    let expected: [f64; K] = std::array::from_fn(|j| (0..PARTS).map(|r| value(r, j)).sum());
    let sums = report.worker_summaries();
    assert_eq!(sums.len(), PARTS as usize);
    for (app, got) in sums {
        assert_eq!(got.map(f64::to_bits), expected.map(f64::to_bits), "app rank {app}");
    }
}
