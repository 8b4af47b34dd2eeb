//! Application matrix tests: every app at several PE counts, optimization
//! levels and (where applicable) element widths — all must validate
//! bit-exactly and produce structurally sane profiles.

use pidcomm::{Error, OptLevel, Primitive};
use pidcomm_apps::bfs::{default_source, run_bfs, run_bfs_in, BfsConfig};
use pidcomm_apps::cc::{run_cc, run_cc_in, CcConfig};
use pidcomm_apps::dlrm::{run_dlrm, run_dlrm_in, DlrmRunConfig};
use pidcomm_apps::gnn::{run_gnn, run_gnn_in, GnnConfig, GnnVariant};
use pidcomm_apps::mlp::{run_mlp, run_mlp_in, MlpConfig};
use pidcomm_apps::AppRun;
use pidcomm_data::dlrm::DlrmConfig;
use pidcomm_data::{rmat, CsrGraph, RmatParams};
use pim_sim::{DType, SystemArena};

fn graph() -> CsrGraph {
    rmat(11, 6, RmatParams::skewed(77)).to_undirected()
}

#[test]
fn mlp_validates_across_pe_counts() {
    for pes in [8, 32, 64, 256] {
        let run = run_mlp(&MlpConfig {
            threads: 0,
            features: 1024,
            layers: 2,
            pes,
            opt: OptLevel::Full,
        })
        .unwrap();
        assert!(run.validated, "{pes} PEs");
        // More PEs -> no more kernel time per PE (work splits).
        assert!(run.profile.kernel_ns > 0.0);
    }
}

#[test]
fn mlp_presets_are_consistent() {
    let a = MlpConfig::feat16k(64, OptLevel::Full);
    assert_eq!(a.features, 2048);
    assert_eq!(a.layers, 5);
    let b = MlpConfig::feat32k(64, OptLevel::Baseline);
    assert_eq!(b.features, 4096);
    assert_eq!(b.opt, OptLevel::Baseline);
}

#[test]
fn mlp_kernel_time_shrinks_with_more_pes() {
    let small = run_mlp(&MlpConfig {
        threads: 0,
        features: 1024,
        layers: 2,
        pes: 16,
        opt: OptLevel::Full,
    })
    .unwrap();
    let large = run_mlp(&MlpConfig {
        threads: 0,
        features: 1024,
        layers: 2,
        pes: 256,
        opt: OptLevel::Full,
    })
    .unwrap();
    assert!(
        large.profile.kernel_ns < small.profile.kernel_ns,
        "parallel kernels must speed up: {} vs {}",
        large.profile.kernel_ns,
        small.profile.kernel_ns
    );
}

#[test]
fn bfs_validates_across_pe_counts_and_levels() {
    let g = graph();
    let src = default_source(&g);
    for pes in [16, 64, 128] {
        for opt in [OptLevel::Baseline, OptLevel::InRegister, OptLevel::Full] {
            let run = run_bfs(
                &BfsConfig {
                    threads: 0,
                    pes,
                    opt,
                },
                &g,
                src,
            )
            .unwrap();
            assert!(run.validated, "{pes} PEs {opt}");
        }
    }
}

#[test]
fn bfs_from_every_kind_of_source() {
    let g = graph();
    // Hub, vertex 0, and a likely low-degree vertex.
    for src in [default_source(&g), 0, (g.num_vertices() - 1) as u32] {
        let run = run_bfs(
            &BfsConfig {
                threads: 0,
                pes: 64,
                opt: OptLevel::Full,
            },
            &g,
            src,
        )
        .unwrap();
        assert!(run.validated, "source {src}");
    }
}

#[test]
fn cc_handles_star_chain_and_isolated_graphs() {
    // Star.
    let star = CsrGraph::from_edges(64, (1..64).map(|v| (0u32, v as u32)).collect());
    let run = run_cc(
        &CcConfig {
            threads: 0,
            pes: 16,
            opt: OptLevel::Full,
        },
        &star,
    )
    .unwrap();
    assert!(run.validated);

    // Chain.
    let chain = CsrGraph::from_edges(64, (0..63).map(|v| (v as u32, v as u32 + 1)).collect());
    let run = run_cc(
        &CcConfig {
            threads: 0,
            pes: 16,
            opt: OptLevel::Full,
        },
        &chain,
    )
    .unwrap();
    assert!(run.validated);

    // Fully isolated vertices: every vertex is its own component.
    let isolated = CsrGraph::from_edges(64, vec![]);
    let run = run_cc(
        &CcConfig {
            threads: 0,
            pes: 16,
            opt: OptLevel::Full,
        },
        &isolated,
    )
    .unwrap();
    assert!(run.validated);
}

#[test]
fn gnn_all_variants_widths_and_levels() {
    let g = rmat(10, 4, RmatParams::uniform(9));
    for variant in [GnnVariant::RsAr, GnnVariant::ArAg] {
        for dtype in [DType::I8, DType::I16, DType::I32] {
            for opt in [OptLevel::Baseline, OptLevel::Full] {
                let run = run_gnn(
                    &GnnConfig {
                        threads: 0,
                        pes: 64,
                        feature_dim: 16,
                        layers: 2,
                        variant,
                        opt,
                        dtype,
                    },
                    &g,
                )
                .unwrap();
                assert!(run.validated, "{} {dtype} {opt}", variant.label());
            }
        }
    }
}

#[test]
fn gnn_single_layer_and_256_pes() {
    let g = rmat(12, 4, RmatParams::skewed(4)); // 4096 vertices % 256
    let run = run_gnn(
        &GnnConfig {
            threads: 0,
            pes: 256,
            feature_dim: 32,
            layers: 1,
            variant: GnnVariant::RsAr,
            opt: OptLevel::Full,
            dtype: DType::I32,
        },
        &g,
    )
    .unwrap();
    assert!(run.validated);
}

#[test]
fn dlrm_validates_across_pe_counts_and_dims() {
    for pes in [64, 128, 256] {
        for dim in [16, 32] {
            let mut w = DlrmConfig::criteo_like(dim);
            w.batch_size = 1024;
            w.rows_per_table = 1 << 10;
            let run = run_dlrm(&DlrmRunConfig {
                threads: 0,
                workload: w,
                pes,
                opt: OptLevel::Full,
            })
            .unwrap();
            assert!(run.validated, "{pes} PEs dim {dim}");
            assert!(run.profile.primitive_ns(Primitive::AlltoAll) > 0.0);
            assert!(run.profile.primitive_ns(Primitive::Gather) > 0.0);
        }
    }
}

#[test]
fn profiles_only_contain_the_expected_primitives() {
    // Table III's primitive mix, checked mechanically.
    let g = graph();
    let bfs = run_bfs(
        &BfsConfig {
            threads: 0,
            pes: 64,
            opt: OptLevel::Full,
        },
        &g,
        default_source(&g),
    )
    .unwrap();
    for p in [
        Primitive::AlltoAll,
        Primitive::ReduceScatter,
        Primitive::Broadcast,
    ] {
        assert_eq!(bfs.profile.primitive_ns(p), 0.0, "BFS should not use {p}");
    }
    assert!(bfs.profile.primitive_ns(Primitive::AllReduce) > 0.0);
    assert!(bfs.profile.primitive_ns(Primitive::Scatter) > 0.0);

    let mlp = run_mlp(&MlpConfig {
        threads: 0,
        features: 512,
        layers: 2,
        pes: 64,
        opt: OptLevel::Full,
    })
    .unwrap();
    for p in [
        Primitive::AlltoAll,
        Primitive::AllReduce,
        Primitive::AllGather,
    ] {
        assert_eq!(mlp.profile.primitive_ns(p), 0.0, "MLP should not use {p}");
    }
    assert!(mlp.profile.primitive_ns(Primitive::ReduceScatter) > 0.0);
}

/// Runs all five apps at a given host-kernel/engine thread budget,
/// sourcing systems from `arena` — the pinning harness for the two tests
/// below.
fn run_all_apps(threads: usize, arena: &mut SystemArena) -> Vec<AppRun> {
    let g = graph();
    let src = default_source(&g);
    vec![
        run_mlp_in(
            &MlpConfig {
                threads,
                features: 512,
                layers: 3,
                pes: 64,
                opt: OptLevel::Full,
            },
            arena,
        )
        .unwrap(),
        run_bfs_in(
            &BfsConfig {
                threads,
                pes: 64,
                opt: OptLevel::Full,
            },
            &g,
            src,
            arena,
        )
        .unwrap(),
        run_cc_in(
            &CcConfig {
                threads,
                pes: 64,
                opt: OptLevel::Full,
            },
            &g,
            arena,
        )
        .unwrap(),
        run_gnn_in(
            &GnnConfig {
                threads,
                pes: 64,
                feature_dim: 16,
                layers: 2,
                variant: GnnVariant::RsAr,
                opt: OptLevel::Full,
                dtype: DType::I32,
            },
            &g,
            arena,
        )
        .unwrap(),
        run_dlrm_in(
            &DlrmRunConfig {
                threads,
                workload: DlrmConfig {
                    num_tables: 8,
                    rows_per_table: 1 << 10,
                    embedding_dim: 16,
                    batch_size: 1024,
                    seed: 7,
                },
                pes: 64,
                opt: OptLevel::Full,
            },
            arena,
        )
        .unwrap(),
    ]
}

#[test]
fn host_kernel_thread_counts_never_change_any_app_result() {
    // The host-kernel executor (`pidcomm::par_pes`) fans the apps' per-PE
    // functional loops over the `threads` budget; outputs, profiles and
    // modeled times must stay byte-identical at {1, 2, auto}.
    let reference = run_all_apps(1, &mut SystemArena::new());
    assert!(reference.iter().all(|r| r.validated));
    for threads in [2usize, 0] {
        let runs = run_all_apps(threads, &mut SystemArena::new());
        for (i, (a, b)) in reference.iter().zip(&runs).enumerate() {
            assert!(a == b, "app #{i} diverges at host-kernel threads={threads}");
        }
    }
}

#[test]
fn arena_reuse_between_runs_never_leaks_state() {
    // Two consecutive passes over all apps on one arena: the second pass
    // runs entirely on recycled systems/buffers and must be byte-identical
    // to the fresh-allocation reference, at serial and parallel host
    // kernels alike.
    let reference = run_all_apps(1, &mut SystemArena::new());
    let mut arena = SystemArena::new();
    for pass in 0..2 {
        for threads in [1usize, 0] {
            let runs = run_all_apps(threads, &mut arena);
            for (i, (a, b)) in reference.iter().zip(&runs).enumerate() {
                assert!(
                    a == b,
                    "app #{i} diverges on arena pass {pass} at threads={threads}"
                );
            }
        }
    }
    assert!(
        arena.pooled_systems() >= 1,
        "apps must recycle their systems"
    );
}

#[test]
fn optimization_level_never_changes_results_only_time() {
    // Same seed, all four levels: identical kernels, different comm time.
    let g = graph();
    let src = default_source(&g);
    let runs: Vec<_> = OptLevel::ALL
        .iter()
        .map(|&opt| {
            run_bfs(
                &BfsConfig {
                    threads: 0,
                    pes: 64,
                    opt,
                },
                &g,
                src,
            )
            .unwrap()
        })
        .collect();
    for r in &runs {
        assert!(r.validated);
        assert!((r.profile.kernel_ns - runs[0].profile.kernel_ns).abs() < 1e-6);
    }
    // Full must beat Baseline on communication.
    assert!(runs[3].profile.comm_ns() < runs[0].profile.comm_ns());
}

/// Configurations an app's layout cannot host come back as typed errors,
/// never as panics.
#[test]
fn unhostable_configs_are_typed_errors() {
    let mlp = |features| {
        run_mlp(&MlpConfig {
            threads: 0,
            features,
            layers: 1,
            pes: 64,
            opt: OptLevel::Full,
        })
    };
    assert!(matches!(mlp(100), Err(Error::InvalidShape(_))));
    // One column per PE: 4f = 256 is not a multiple of 8P = 512.
    assert!(matches!(mlp(64), Err(Error::InvalidBuffer(_))));

    let gnn = run_gnn(
        &GnnConfig {
            threads: 0,
            pes: 64,
            feature_dim: 16,
            layers: 0,
            variant: GnnVariant::RsAr,
            opt: OptLevel::Full,
            dtype: DType::I32,
        },
        &graph(),
    );
    assert!(matches!(gnn, Err(Error::InvalidShape(_))));
    // The GNN models 1/2/4-byte PE registers; wider elements are typed
    // errors, not a panic inside the narrow codecs.
    for dtype in [DType::I64, DType::U64] {
        let gnn = run_gnn(
            &GnnConfig {
                threads: 0,
                pes: 64,
                feature_dim: 16,
                layers: 1,
                variant: GnnVariant::RsAr,
                opt: OptLevel::Full,
                dtype,
            },
            &graph(),
        );
        assert!(matches!(gnn, Err(Error::InvalidBuffer(_))), "{dtype}");
    }

    let dlrm = |pes, batch_size| {
        run_dlrm(&DlrmRunConfig {
            threads: 0,
            workload: DlrmConfig {
                num_tables: 8,
                rows_per_table: 1 << 10,
                embedding_dim: 16,
                batch_size,
                seed: 7,
            },
            pes,
            opt: OptLevel::Full,
        })
    };
    // 100 PEs do not divide by the 8-way table division.
    assert!(matches!(dlrm(100, 1024), Err(Error::InvalidShape(_))));
    // A batch that does not divide across the PEs.
    assert!(matches!(dlrm(64, 1000), Err(Error::InvalidShape(_))));
}
