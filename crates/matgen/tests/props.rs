//! Property tests: every generator produces valid, symmetric rows for
//! arbitrary geometries, and generation is deterministic.

use proptest::prelude::*;

use ft_matgen::graphene::Graphene;
use ft_matgen::random::RandomSym;
use ft_matgen::spectra::ToeplitzTridiag;
use ft_matgen::stencil::{Laplace2d, Laplace3d};
use ft_matgen::{seeded_u01, validate_rows, RowEntry, RowGen};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn graphene_always_valid(
        lx in 1u64..10,
        ly in 1u64..10,
        nnn in any::<bool>(),
        periodic in any::<bool>(),
        disorder in 0.0f64..2.0,
        seed in any::<u64>(),
    ) {
        let mut g = Graphene::new(lx, ly).with_disorder(disorder, seed).with_periodic(periodic);
        if nnn {
            g = g.with_nnn(-0.2);
        }
        validate_rows(&g, 0..g.dim(), true);
    }

    #[test]
    fn stencils_always_valid(nx in 1u64..12, ny in 1u64..12, nz in 1u64..6) {
        let g2 = Laplace2d::new(nx, ny);
        validate_rows(&g2, 0..g2.dim(), true);
        let g3 = Laplace3d::new(nx, ny, nz);
        validate_rows(&g3, 0..g3.dim(), true);
    }

    #[test]
    fn random_sym_valid_and_deterministic(
        n in 1u64..200,
        bw in 0u64..12,
        density in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let g = RandomSym::new(n, bw, density, seed);
        validate_rows(&g, 0..g.dim().min(64), true);
        let h = RandomSym::new(n, bw, density, seed);
        for i in (0..n).step_by(17) {
            prop_assert_eq!(g.row_vec(i), h.row_vec(i));
        }
    }

    /// Toeplitz eigenvalues stay within the Gershgorin disc.
    #[test]
    fn toeplitz_gershgorin(n in 1u64..80, a in -5.0f64..5.0, b in -3.0f64..3.0) {
        let t = ToeplitzTridiag::new(n, a, b);
        validate_rows(&t, 0..t.dim(), true);
        for l in t.eigenvalues() {
            prop_assert!(l >= a - 2.0 * b.abs() - 1e-9);
            prop_assert!(l <= a + 2.0 * b.abs() + 1e-9);
        }
    }
}

/// Graphene's rows against the reference rule: emit the diagonal, the
/// nearest and the next-nearest neighbors of every site, stable-sort by
/// column, add each duplicate into the entry kept before it. On open
/// boundaries the generator's rows equal it bit for bit — degrees, seeded
/// disorder and all; periodic wrap may merge duplicates in another order,
/// so those rows are held to `validate_rows`.
#[test]
fn graphene_rows_match_the_sorted_reference() {
    let bits = |r: &[RowEntry]| -> Vec<(u64, u64)> {
        r.iter().map(|e| (e.col, e.val.to_bits())).collect()
    };
    for (lx, ly) in (1..=6).flat_map(|lx| (1..=6).map(move |ly| (lx, ly))) {
        assert_eq!(Graphene::new(lx, ly).dim(), 2 * lx * ly);
        for flags in 0..8u8 {
            let (nnn, disorder, periodic) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
            let mut g = Graphene::new(lx, ly).with_periodic(periodic);
            if nnn {
                g = g.with_nnn(-0.2);
            }
            if disorder {
                g = g.with_disorder(1.5, 0xD15C);
            }
            if periodic {
                validate_rows(&g, 0..g.dim(), true);
                continue;
            }
            for row in 0..g.dim() {
                let (got, want) = (g.row_vec(row), reference_row(&g, lx, ly, row));
                let what = format!("{lx}x{ly} nnn {nnn} disorder {disorder}: row {row}");
                assert_eq!(bits(&got), bits(&want), "{what}");
            }
        }
    }
}

/// One graphene row by the reference rule.
fn reference_row(g: &Graphene, lx: u64, ly: u64, row: u64) -> Vec<RowEntry> {
    let site = |x: i64, y: i64, sub: u64| {
        let (x, y) = match g.periodic {
            true => (x.rem_euclid(lx as i64), y.rem_euclid(ly as i64)),
            false if x < 0 || x >= lx as i64 || y < 0 || y >= ly as i64 => return None,
            false => (x, y),
        };
        Some(((y as u64) * lx + x as u64) * 2 + sub)
    };
    let onsite = match g.disorder {
        0.0 => 0.0,
        w => w * (seeded_u01(g.seed, row) - 0.5),
    };
    let (sub, x, y) = (row & 1, ((row >> 1) % lx) as i64, ((row >> 1) / lx) as i64);
    let mut out = vec![RowEntry { col: row, val: onsite }];
    let mut push = |col: Option<u64>, val| out.extend(col.map(|col| RowEntry { col, val }));
    let nn = match sub {
        0 => [(0, 0), (-1, 0), (0, -1)],
        _ => [(0, 0), (1, 0), (0, 1)],
    };
    for (dx, dy) in nn {
        push(site(x + dx, y + dy, 1 - sub), g.t1);
    }
    if g.t2 != 0.0 {
        for (dx, dy) in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)] {
            push(site(x + dx, y + dy, sub), g.t2);
        }
    }
    out.sort_by_key(|e| e.col);
    out.dedup_by(|e, kept| {
        let same = e.col == kept.col;
        if same {
            kept.val += e.val;
        }
        same
    });
    out
}
