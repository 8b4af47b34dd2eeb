//! Machine-readable performance trajectory of the simulator hot path.
//!
//! Two modes:
//!
//! * **Primitive sweep** (default): the fig14-style AlltoAll /
//!   ReduceScatter / AllReduce / AllGather sweep at the full optimization
//!   level on the paper's 1024-PE 2-D (32, 32) configuration, written to
//!   `BENCH_streaming.json`. Per primitive it records the *wall-clock*
//!   time of the functional simulation alongside the *modeled* device
//!   time — wall-clock is what the refactors optimize, modeled time is
//!   what must stay bit-identical.
//! * **App sweep** (`--apps`): the fig15 application sweep (every
//!   `AppCase` at baseline and full), written to `BENCH_apps.json`. Each
//!   cell runs once on the serial reference schedule (one worker, serial
//!   engine and host kernels — the pre-sweep-pool path) with per-cell
//!   wall-clock, then the whole sweep re-runs on the work-stealing pool
//!   with per-worker system arenas; the run aborts if any parallel
//!   `AppProfile` differs from its serial reference by a single bit, so
//!   the recorded speedup can never come at the cost of modeled accuracy.
//! * **Kernel sweep** (`--kernels`): every `pim_sim::kernels` entry point
//!   on seeded ragged-length inputs, written to `BENCH_kernels.json`.
//!   Each cell times the kernel and records an FNV-1a checksum of its
//!   output bytes — the bit pattern `--check` pins, so functional drift
//!   in any kernel fails CI exactly like modeled-time drift in the app
//!   sweep. The kernels with an independent oracle in
//!   `kernels::reference` (sext/trunc, the new-bit scan, `copy_rows`)
//!   also run and time it, aborting on any output mismatch.
//! * **Design-space sweep** (`--design`): extended fig19/fig20/fig22-style
//!   grids scored with *cost-only* plan execution, written to
//!   `BENCH_design.json`. Every cell also runs the functional engine once
//!   and aborts unless the analytic report matches it bit-for-bit, then
//!   records both wall-clocks — the recorded analytic speedup is what
//!   makes exhaustive design exploration affordable. `--cost-only` skips
//!   the functional cross-run (the committed reference still pins the
//!   bits via `--check`).
//! * **Autotune sweep** (`--autotune`): the analytic plan autotuner
//!   against the five applications' dominant collectives and fig20-style
//!   default shapes, written to `BENCH_autotune.json`. Each cell records
//!   the default shape's modeled time, the tuned winner and the explored
//!   frontier size; the run aborts if the tuner ever loses to a default.
//! * **Chaos soak** (`--chaos`): the five small application cases rerun
//!   through their `run_*_resilient` variants under seeded fault
//!   profiles (clean / flip / storm / dead-PE) with quarantine on and
//!   off, written to `BENCH_chaos.json`. Each cell records the typed run
//!   outcome, retries consumed, backoff epochs, checkpoint restores,
//!   quarantined PEs and the degraded-output delta alongside the modeled
//!   time; fault schedules are pure functions of fixed seeds, so the
//!   whole report is deterministic and `--check` pins it bit-for-bit.
//!   Each app has one runner, so the clean column equals the fault-free
//!   `--apps --small` cell by construction; asserting it in-process
//!   guards that the two case lists keep the same configurations.
//!
//! Usage: `bench_json [--apps | --kernels | --design | --autotune |
//! --chaos] [--small] [--warm-serial] [--threads N] [--cells FILTER]
//! [--min-speedup X] [--cost-only] [OUTPUT] [--reference FILE]
//! [--check FILE]`
//!
//! * `OUTPUT` — path of the JSON report (default `BENCH_streaming.json`,
//!   or `BENCH_apps.json` with `--apps`).
//! * `--small` — reduced-size app sweep (the five `small_cases` on 64
//!   PEs); the CI smoke configuration.
//! * `--warm-serial` — after the cold serial reference, re-run every cell
//!   on one worker sharing a single arena, so cells past the first hit
//!   the plan cache and reuse pooled systems and staging buffers. The
//!   cold-vs-warm delta isolates pure plan and arena reuse with the
//!   schedule held fixed at one thread; recorded under `"warm_serial"`
//!   in the report metadata.
//! * `--threads N` — machine thread budget (`0` or absent = auto); the
//!   report records the budget that actually ran, not the request.
//! * `--cells FILTER` — comma-separated substrings matched against each
//!   cell's `app/dataset/opt/pes` label; only matching cells run. The CI
//!   bisect tool: a drifting cell from a full `--check` run can be
//!   re-run (and re-checked against the same full reference) alone.
//! * `--reference FILE` — a previous report to embed verbatim under
//!   `"reference"`, so before/after numbers live in one file.
//! * `--min-speedup X` — kernel slow-regression gate: fail (after writing
//!   the report) when a kernel with an independent oracle runs below `X`
//!   times its oracle's speed. The functional `--check` pins *what* the
//!   kernels compute; this gate catches toolchain/codegen regressions in
//!   *how fast* — a word scan or sext loop falling below a configured
//!   multiple of its per-bit / per-element oracle is a build problem even
//!   when its outputs still match. Single-form kernels have nothing to
//!   compare against and are not gated.
//! * `--check FILE` — compare the modeled-time bit patterns against a
//!   previously written report and fail on any drift (the CI guard for
//!   unintended modeled-time changes). With `--cells`, cells are matched
//!   by identity instead of position, so a filtered run checks against
//!   the full reference.
//!
//! App-sweep metadata additionally records the scoped plan-cache
//! hit/miss tallies of the serial and pooled passes (summed over each
//! pass's own `pidcomm::PlanCache` instances — per-cell arenas serially,
//! per-worker arenas pooled), so the trajectory shows how much planning
//! the persistent-plan engine actually skipped.

use pidcomm::{auto_threads, OptLevel, PlanCache, PlanCacheStats, Primitive};
use pidcomm_bench::sweep::SweepBudget;
use pidcomm_bench::{apps, run_primitive, time_primitive, PrimSetup};
use pim_sim::SystemArena;

const PRIMS: [Primitive; 4] = [
    Primitive::AlltoAll,
    Primitive::ReduceScatter,
    Primitive::AllReduce,
    Primitive::AllGather,
];

struct Args {
    output: String,
    reference: Option<String>,
    check: Option<String>,
    apps: bool,
    kernels: bool,
    design: bool,
    autotune: bool,
    chaos: bool,
    cost_only: bool,
    small: bool,
    warm_serial: bool,
    threads: usize,
    cells: Option<String>,
    min_speedup: Option<f64>,
}

/// Reports a usage error and exits with status 2 — flag mistakes get one
/// clear line, not a panic backtrace.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut parsed = Args {
        output: String::new(),
        reference: None,
        check: None,
        apps: false,
        kernels: false,
        design: false,
        autotune: false,
        chaos: false,
        cost_only: false,
        small: false,
        warm_serial: false,
        threads: 0,
        cells: None,
        min_speedup: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reference" => {
                parsed.reference = Some(
                    args.next()
                        .unwrap_or_else(|| die("--reference needs a file path")),
                );
            }
            "--check" => {
                parsed.check = Some(
                    args.next()
                        .unwrap_or_else(|| die("--check needs a file path")),
                )
            }
            "--apps" => parsed.apps = true,
            "--kernels" => parsed.kernels = true,
            "--design" => parsed.design = true,
            "--autotune" => parsed.autotune = true,
            "--chaos" => parsed.chaos = true,
            "--cost-only" => parsed.cost_only = true,
            "--small" => parsed.small = true,
            "--warm-serial" => parsed.warm_serial = true,
            "--threads" => {
                parsed.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a number"));
            }
            "--cells" => {
                parsed.cells = Some(args.next().unwrap_or_else(|| die("--cells needs a filter")))
            }
            "--min-speedup" => {
                parsed.min_speedup = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--min-speedup needs a ratio")),
                );
            }
            _ if arg.starts_with("--") => die(format_args!("unknown flag {arg}")),
            _ => parsed.output = arg,
        }
    }
    let modes = [
        parsed.apps,
        parsed.kernels,
        parsed.design,
        parsed.autotune,
        parsed.chaos,
    ];
    if modes.iter().filter(|&&m| m).count() > 1 {
        die("--apps, --kernels, --design, --autotune and --chaos are mutually exclusive");
    }
    if parsed.check.is_some() && !modes.iter().any(|&m| m) {
        die("--check applies to the --apps, --kernels, --design, --autotune and --chaos sweeps");
    }
    if (parsed.small || parsed.cells.is_some() || parsed.warm_serial) && !parsed.apps {
        die("--small, --cells and --warm-serial only apply to the --apps sweep");
    }
    if parsed.min_speedup.is_some() && !parsed.kernels {
        die("--min-speedup only applies to the --kernels sweep");
    }
    if parsed.cost_only && !parsed.design {
        die("--cost-only only applies to the --design sweep");
    }
    if parsed.output.is_empty() {
        parsed.output = if parsed.apps {
            "BENCH_apps.json".into()
        } else if parsed.kernels {
            "BENCH_kernels.json".into()
        } else if parsed.design {
            "BENCH_design.json".into()
        } else if parsed.autotune {
            "BENCH_autotune.json".into()
        } else if parsed.chaos {
            "BENCH_chaos.json".into()
        } else {
            "BENCH_streaming.json".into()
        };
    }
    parsed
}

fn read_reference(reference: Option<&str>) -> String {
    match reference {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(format_args!("cannot read reference {path}: {e}"))),
        None => "null".into(),
    }
}

// ---- tolerant report scanner -----------------------------------------
//
// `--check` must never silently corrupt the drift guard, so instead of
// string-splitting on key names (which broke on key reordering and would
// break on an app name containing the matched substring), the cells are
// extracted with a small depth- and string-aware scanner that fails
// loudly on anything it cannot read.

/// One checked cell of a report: identity key plus the pinned bit
/// pattern. App-sweep cells key on `app/dataset/opt/pes` and pin the
/// modeled-time bits; kernel-sweep cells key on `kernel/case` and pin the
/// output checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CellBits {
    key: String,
    bits: String,
}

/// Returns the index of the closing quote of the string literal whose
/// opening quote sits just before `start`, honoring `\"` escapes.
fn skip_string(b: &[u8], start: usize) -> Result<usize, String> {
    let mut i = start;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return Ok(i),
            _ => i += 1,
        }
    }
    Err("unterminated string literal".into())
}

/// The contents of the report's own *top-level* `"results": [...]` array.
/// Depth tracking keeps an embedded `--reference` report (whose own
/// `"results"` key sits at depth ≥ 2) and string values that merely
/// contain the word from matching.
fn results_span(s: &str) -> Result<&str, String> {
    let b = s.as_bytes();
    let mut depth = 0usize;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                let end = skip_string(b, i + 1)?;
                let token = &s[i + 1..end];
                i = end + 1;
                if depth != 1 || token != "results" {
                    continue;
                }
                let mut j = i;
                while j < b.len() && b[j].is_ascii_whitespace() {
                    j += 1;
                }
                if b.get(j) != Some(&b':') {
                    continue; // a string *value* spelled "results", not a key
                }
                j += 1;
                while j < b.len() && b[j].is_ascii_whitespace() {
                    j += 1;
                }
                if b.get(j) != Some(&b'[') {
                    return Err("top-level \"results\" is not an array".into());
                }
                let start = j + 1;
                let mut d = 1usize;
                let mut k = start;
                while k < b.len() {
                    match b[k] {
                        b'"' => k = skip_string(b, k + 1)?,
                        b'[' => d += 1,
                        b']' => {
                            d -= 1;
                            if d == 0 {
                                return Ok(&s[start..k]);
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                return Err("unterminated \"results\" array".into());
            }
            b'{' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b']' => {
                depth = depth.saturating_sub(1);
                i += 1;
            }
            _ => i += 1,
        }
    }
    Err("no top-level \"results\" array".into())
}

/// Reads one cell object's fields in any key order; string and bare
/// scalar values are both accepted.
fn parse_cell(obj: &str) -> Result<CellBits, String> {
    let b = obj.as_bytes();
    let mut fields: Vec<(&str, String)> = Vec::new();
    let mut i = 0;
    while i < b.len() {
        while i < b.len() && b[i] != b'"' {
            i += 1;
        }
        if i >= b.len() {
            break;
        }
        let end = skip_string(b, i + 1)?;
        let key = &obj[i + 1..end];
        i = end + 1;
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if b.get(i) != Some(&b':') {
            continue; // a stray string value, not a key
        }
        i += 1;
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        let value = if b.get(i) == Some(&b'"') {
            let vend = skip_string(b, i + 1)?;
            let v = obj[i + 1..vend].to_string();
            i = vend + 1;
            v
        } else {
            let start = i;
            while i < b.len() && b[i] != b',' && b[i] != b'}' {
                i += 1;
            }
            obj[start..i].trim().to_string()
        };
        fields.push((key, value));
    }
    let get = |k: &str| {
        fields
            .iter()
            .find(|(key, _)| *key == k)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| format!("cell is missing \"{k}\" in {{{obj}}}"))
    };
    // Kernel-sweep cells carry a "kernel" field; everything else is an
    // app-sweep cell.
    if fields.iter().any(|(k, _)| *k == "kernel") {
        return Ok(CellBits {
            key: format!("{}/{}", get("kernel")?, get("case")?),
            bits: get("checksum")?,
        });
    }
    Ok(CellBits {
        key: format!(
            "{}/{}/{}/{}",
            get("app")?,
            get("dataset")?,
            get("opt")?,
            get("pes")?
        ),
        bits: get("modeled_bits")?,
    })
}

/// Extracts every cell of the report's own results (never the embedded
/// reference's). Errors are explicit — a malformed report fails the check
/// instead of silently passing with zero cells.
fn extract_cells(report: &str) -> Result<Vec<CellBits>, String> {
    let span = results_span(report)?;
    let b = span.as_bytes();
    let mut cells = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'{' => {
                let start = i + 1;
                let mut d = 1usize;
                let mut k = start;
                while k < b.len() && d > 0 {
                    match b[k] {
                        b'"' => k = skip_string(b, k + 1)?,
                        b'{' => d += 1,
                        b'}' => d -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                if d > 0 {
                    return Err(format!(
                        "cell {}: unterminated cell object in \"results\"",
                        cells.len()
                    ));
                }
                cells.push(
                    parse_cell(&span[start..k - 1])
                        .map_err(|e| format!("cell {}: {e}", cells.len()))?,
                );
                i = k;
            }
            b'"' => i = skip_string(b, i + 1)? + 1,
            _ => i += 1,
        }
    }
    Ok(cells)
}

/// Compares the report's cells against a previously written report at
/// `path`; exits non-zero on drift or on an unreadable report. With
/// `subset` (a `--cells` run) cells match by identity key against the
/// full reference; otherwise the exact sequence must match.
fn check_modeled_bits(json: &str, path: &str, subset: bool) {
    let parse = |label: &str, text: &str| {
        extract_cells(text).unwrap_or_else(|e| {
            eprintln!("cannot parse {label}: {e}");
            std::process::exit(1);
        })
    };
    let ref_text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read check {path}: {e}");
        std::process::exit(1);
    });
    let expect = parse(&format!("check reference {path}"), &ref_text);
    let got = parse("generated report", json);

    let mut drift = Vec::new();
    if got.is_empty() {
        drift.push("report contains no cells".to_string());
    }
    if subset {
        for cell in &got {
            match expect.iter().find(|c| c.key == cell.key) {
                Some(r) if r.bits == cell.bits => {}
                Some(r) => drift.push(format!(
                    "{}: expected bits {}, got {}",
                    cell.key, r.bits, cell.bits
                )),
                None => drift.push(format!("{}: cell not present in {path}", cell.key)),
            }
        }
    } else if expect != got {
        drift.push(format!(
            "expected {} cells {:?}, got {} cells {:?}",
            expect.len(),
            expect,
            got.len(),
            got
        ));
    }
    if !drift.is_empty() {
        eprintln!("modeled-time drift against {path}:");
        for d in &drift {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "modeled times match {path} bit-for-bit ({} cells{})",
        got.len(),
        if subset { ", matched by identity" } else { "" }
    );
}

// ---- kernel sweep ----------------------------------------------------
//
// Every `pim_sim::kernels` entry point on seeded ragged-length inputs.
// Each kernel's output fingerprint is recorded for `--check`; a kernel
// with an independent oracle also runs and times the oracle, aborting on
// any output mismatch.

/// FNV-1a 64 over bytes — the deterministic output fingerprint the
/// kernel sweep pins.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Times `f` over enough iterations to fill ~10 ms and returns ns/iter.
fn time_kernel(mut f: impl FnMut()) -> f64 {
    let t0 = std::time::Instant::now();
    let mut warm = 0u64;
    while t0.elapsed().as_millis() < 2 {
        f();
        warm += 1;
    }
    let iters = (warm * 5).max(10);
    let t1 = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    t1.elapsed().as_nanos() as f64 / iters as f64
}

/// Little-endian fingerprint bytes, encoded inline rather than by the
/// codecs under test, so a symmetric decode/encode bug cannot cancel out
/// in the decode checksums.
fn le_bytes<T: Copy, const W: usize>(v: &[T], to_le: fn(T) -> [u8; W]) -> Vec<u8> {
    v.iter().flat_map(|&x| to_le(x)).collect()
}

fn le32(v: &[i32]) -> Vec<u8> {
    le_bytes(v, i32::to_le_bytes)
}

fn run_kernel_sweep(args: &Args) {
    use pim_sim::kernels::{self, reference as oracle};
    use pim_sim::testgen::SplitMix64;
    use pim_sim::DType;
    use std::hint::black_box;

    let mut g = SplitMix64::new(0x004e_51e7);
    let mut rows: Vec<String> = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();
    // `ref_ns` is the oracle's time, for the kernels that have one.
    let mut emit = |kernel: &str, case: &str, fast_ns: f64, ref_ns: Option<f64>, out: &[u8]| {
        let checksum = fnv1a(out);
        let versus = match ref_ns {
            Some(r) => {
                speedups.push((format!("{kernel}/{case}"), r / fast_ns));
                eprintln!(
                    "{kernel:<26} {case:<12} {fast_ns:>10.1} ns vs {r:>10.1} ns oracle ({:>5.2}x)",
                    r / fast_ns
                );
                format!(
                    " \"scalar_ref_ns\": {r:.2}, \"speedup\": {:.4},",
                    r / fast_ns
                )
            }
            None => {
                eprintln!("{kernel:<26} {case:<12} {fast_ns:>10.1} ns");
                String::new()
            }
        };
        rows.push(format!(
            "    {{ \"kernel\": \"{kernel}\", \"case\": \"{case}\", \"wall_ns\": {fast_ns:.2},{versus} \"checksum\": \"{checksum:016x}\" }}"
        ));
    };

    // Ragged element counts, so no length is a round number.
    const N: usize = 16 * 1024 + 7;

    // Codecs (single form: timed and fingerprinted).
    let bytes = g.bytes(N * 8);
    let mut i32s = vec![0i32; N];
    kernels::decode_i32(&bytes[..N * 4], &mut i32s);
    let f = time_kernel(|| kernels::decode_i32(black_box(&bytes[..N * 4]), black_box(&mut i32s)));
    emit("decode_i32", &N.to_string(), f, None, &le32(&i32s));
    let mut out = vec![0u8; N * 4];
    kernels::encode_i32(&i32s, &mut out);
    let f = time_kernel(|| kernels::encode_i32(black_box(&i32s), black_box(&mut out)));
    emit("encode_i32", &N.to_string(), f, None, &out);

    let mut u32s = vec![0u32; N];
    kernels::decode_u32(&bytes[..N * 4], &mut u32s);
    let f = time_kernel(|| kernels::decode_u32(black_box(&bytes[..N * 4]), black_box(&mut u32s)));
    let enc = le_bytes(&u32s, u32::to_le_bytes);
    emit("decode_u32", &N.to_string(), f, None, &enc);
    kernels::encode_u32(&u32s, &mut out);
    let f = time_kernel(|| kernels::encode_u32(black_box(&u32s), black_box(&mut out)));
    emit("encode_u32", &N.to_string(), f, None, &out);

    let u64s: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let mut out = vec![0u8; N * 8];
    kernels::encode_u64(&u64s, &mut out);
    let f = time_kernel(|| kernels::encode_u64(black_box(&u64s), black_box(&mut out)));
    emit("encode_u64", &N.to_string(), f, None, &out);

    // Narrow views against their shift-based oracles.
    for dt in [DType::I8, DType::I16] {
        let w = dt.size_bytes();
        let mut fast = vec![0i32; N];
        let mut slow = vec![0i32; N];
        kernels::decode_sext(dt, &bytes[..N * w], &mut fast);
        oracle::decode_sext_scalar_ref(dt, &bytes[..N * w], &mut slow);
        assert_eq!(fast, slow, "decode_sext {dt} diverges from its oracle");
        let f = time_kernel(|| {
            kernels::decode_sext(dt, black_box(&bytes[..N * w]), black_box(&mut fast))
        });
        let r = time_kernel(|| {
            oracle::decode_sext_scalar_ref(dt, black_box(&bytes[..N * w]), black_box(&mut slow))
        });
        let case = format!("{dt}x{N}");
        emit("decode_sext", &case, f, Some(r), &le32(&fast));

        let vals = fast.clone();
        let mut fast = vec![0u8; N * w];
        let mut slow = vec![0u8; N * w];
        kernels::encode_trunc(dt, &vals, &mut fast);
        oracle::encode_trunc_scalar_ref(dt, &vals, &mut slow);
        assert_eq!(fast, slow, "encode_trunc {dt} diverges from its oracle");
        let f = time_kernel(|| kernels::encode_trunc(dt, black_box(&vals), black_box(&mut fast)));
        let r = time_kernel(|| {
            oracle::encode_trunc_scalar_ref(dt, black_box(&vals), black_box(&mut slow))
        });
        emit("encode_trunc", &case, f, Some(r), &fast);
    }

    // Accumulates at the MLP partial-vector shape (+ ragged tail). Each
    // is fingerprinted after one call from `acc0`; timing then keeps
    // accumulating into the same buffer.
    let na: i32 = 4096 + 5;
    let acc0: Vec<i32> = (0..na).map(|i| i.wrapping_mul(31) - 7).collect();
    let xs: Vec<i32> = (0..na).map(|i| (i % 97) - 48).collect();
    let xbytes = le32(&xs);
    {
        let mut acc = acc0.clone();
        kernels::axpy_i32_bytes(&mut acc, 3, &xbytes);
        let out = le32(&acc);
        let f = time_kernel(|| kernels::axpy_i32_bytes(black_box(&mut acc), black_box(3), &xbytes));
        emit("axpy_i32_bytes", &na.to_string(), f, None, &out);
    }
    for dt in [DType::I8, DType::I32] {
        let mut acc = acc0.clone();
        kernels::axpy_wrap(dt, &mut acc, -5, &xs);
        let out = le32(&acc);
        let f = time_kernel(|| kernels::axpy_wrap(dt, black_box(&mut acc), black_box(-5), &xs));
        emit("axpy_wrap", &format!("{dt}x{na}"), f, None, &out);

        let mut acc = acc0.clone();
        kernels::add_wrap(dt, &mut acc, &xs);
        let out = le32(&acc);
        let f = time_kernel(|| kernels::add_wrap(dt, black_box(&mut acc), &xs));
        emit("add_wrap", &format!("{dt}x{na}"), f, None, &out);
    }
    {
        let mut acc = acc0;
        kernels::relu_i32(&mut acc);
        let out = le32(&acc);
        let f = time_kernel(|| kernels::relu_i32(black_box(&mut acc)));
        emit("relu_i32", &na.to_string(), f, None, &out);
    }

    // New-bit scan (BFS frontier shape, ragged byte length): word scan
    // against the per-bit oracle.
    let nb = 4096 + 3;
    let olds = g.bytes(nb);
    let news: Vec<u8> = g.bytes(nb).iter().zip(&olds).map(|(n, o)| n | o).collect();
    {
        let mut fast = Vec::new();
        kernels::for_each_new_bit(&news, &olds, |v| fast.push(v as u32));
        let mut slow = Vec::new();
        oracle::for_each_new_bit_scalar_ref(&news, &olds, |v| slow.push(v as u32));
        assert_eq!(fast, slow, "for_each_new_bit diverges from its oracle");
        let f = time_kernel(|| {
            let mut sum = 0usize;
            kernels::for_each_new_bit(black_box(&news), black_box(&olds), |v| sum += v);
            black_box(sum);
        });
        let r = time_kernel(|| {
            let mut sum = 0usize;
            oracle::for_each_new_bit_scalar_ref(black_box(&news), black_box(&olds), |v| sum += v);
            black_box(sum);
        });
        let enc = le_bytes(&fast, u32::to_le_bytes);
        emit("for_each_new_bit", &nb.to_string(), f, Some(r), &enc);
    }

    // Row scatter at the GNN transpose shape (32 blocks of 64 rows x 8 B).
    {
        let src = g.bytes(32 * 64 * 8);
        let mut fast = vec![0u8; 32 * 64 * 8];
        let mut slow = vec![0u8; 32 * 64 * 8];
        let run = |dst: &mut [u8], scalar: bool, src: &[u8]| {
            for blk in 0..32usize {
                if scalar {
                    oracle::copy_rows_scalar_ref(dst, blk * 8, 256, src, blk * 64 * 8, 8, 8, 64);
                } else {
                    kernels::copy_rows(dst, blk * 8, 256, src, blk * 64 * 8, 8, 8, 64);
                }
            }
        };
        run(&mut fast, false, &src);
        run(&mut slow, true, &src);
        assert_eq!(fast, slow, "copy_rows diverges from its oracle");
        let out = fast.clone();
        let f = time_kernel(|| run(black_box(&mut fast), false, black_box(&src)));
        let r = time_kernel(|| run(black_box(&mut slow), true, black_box(&src)));
        emit("copy_rows", "gnn_transpose", f, Some(r), &out);
    }

    let json = format!(
        "{{\n  \"benchmark\": \"pim_sim::kernels sweep, seeded ragged inputs; kernels with an independent oracle also time it\",\n  \"results\": [\n{}\n  ],\n  \"reference\": {}\n}}\n",
        rows.join(",\n"),
        read_reference(args.reference.as_deref()).trim_end()
    );
    if let Some(check) = &args.check {
        check_modeled_bits(&json, check, false);
    }
    std::fs::write(&args.output, json)
        .unwrap_or_else(|e| die(format_args!("cannot write {}: {e}", args.output)));
    eprintln!("wrote {}", args.output);

    // Slow-regression gate over the kernels that have an independent
    // oracle: the checksum check above pins *what* they compute, this
    // pins *how fast* relative to that oracle — a kernel falling below
    // the configured multiple signals a toolchain/codegen regression even
    // when its outputs still match. Evaluated after the report is written
    // so the numbers behind a failure are always on disk.
    if let Some(threshold) = args.min_speedup {
        let slow: Vec<&(String, f64)> = speedups.iter().filter(|(_, s)| *s < threshold).collect();
        if !slow.is_empty() {
            eprintln!("kernel slow-regression gate: speedup below {threshold:.2}x of the oracle:");
            for (key, s) in &slow {
                eprintln!("  {key}: {s:.2}x");
            }
            std::process::exit(1);
        }
        eprintln!(
            "kernel slow-regression gate: all {} kernels with an oracle at or above {threshold:.2}x of it",
            speedups.len()
        );
    }
}

fn run_primitive_sweep(args: &Args) {
    let bytes_per_node = 32 * 1024;
    let mut setup = PrimSetup::default_2d(bytes_per_node);
    setup.threads = args.threads;

    // Warm up allocator and page cache so the first primitive is not
    // charged for process start-up.
    let _ = run_primitive(&setup, Primitive::AlltoAll, OptLevel::Full);

    let mut rows = Vec::new();
    for prim in PRIMS {
        let (report, wall_ms) = time_primitive(&setup, prim, OptLevel::Full, 3);
        let modeled_us = report.time_ns() / 1e3;
        eprintln!(
            "{:<4} wall {wall_ms:>10.1} ms   modeled {modeled_us:>10.1} us   {:>8.2} GB/s modeled",
            prim.abbrev(),
            report.throughput_gbps()
        );
        rows.push(format!(
            "    {{ \"primitive\": \"{}\", \"wall_ms\": {wall_ms:.3}, \"modeled_us\": {modeled_us:.3}, \"modeled_gbps\": {:.4} }}",
            prim.abbrev(),
            report.throughput_gbps()
        ));
    }

    // The resolved engine budget that actually ran — not the requested
    // flag or environment string.
    let resolved = if args.threads == 0 {
        auto_threads()
    } else {
        args.threads
    };
    let json = format!(
        "{{\n  \"benchmark\": \"fig14 primitive sweep, 1024 PEs, (32,32), {} B/node, OptLevel::Full\",\n  \"threads\": {},\n  \"results\": [\n{}\n  ],\n  \"reference\": {}\n}}\n",
        bytes_per_node,
        resolved,
        rows.join(",\n"),
        read_reference(args.reference.as_deref()).trim_end()
    );
    std::fs::write(&args.output, json)
        .unwrap_or_else(|e| die(format_args!("cannot write {}: {e}", args.output)));
    eprintln!("wrote {}", args.output);
}

fn run_app_sweep(args: &Args) {
    let (cases, pes, label) = if args.small {
        (apps::small_cases(), 64, "small (CI smoke)")
    } else {
        (apps::all_cases(), 1024, "fig15")
    };
    let mut cells = apps::base_vs_full_cells(cases.len(), pes);
    if let Some(filter) = &args.cells {
        let pats: Vec<&str> = filter.split(',').filter(|p| !p.is_empty()).collect();
        let label_of = |c: &apps::AppCell| {
            format!(
                "{}/{}/{:?}/{}",
                cases[c.case].app, cases[c.case].dataset, c.opt, c.pes
            )
        };
        let all: Vec<String> = cells.iter().map(label_of).collect();
        cells.retain(|c| {
            let l = label_of(c);
            pats.iter().any(|p| l.contains(p))
        });
        assert!(
            !cells.is_empty(),
            "--cells {filter} matched no cell; available: {all:?}"
        );
        eprintln!(
            "--cells {filter}: running {} of {} cells",
            cells.len(),
            all.len()
        );
    }
    let budget = SweepBudget::split(args.threads, cells.len());

    // Untimed warm-up pass: builds the shared datasets, warms the page
    // cache and allocator arenas, so the serial-vs-parallel comparison
    // below measures scheduling, not first-touch effects.
    let _ = apps::run_app_sweep(&cases, &cells, budget);

    // Serial reference: every cell on one worker with the serial engine
    // and host-kernel schedule — the pre-sweep-pool wall-clock path —
    // timed per cell. Each cell builds a fresh arena (fresh plan cache),
    // so the serial pass's plan-cache hits come only from within-run
    // iteration loops; its stats are read from each cell's own cache,
    // scoped to this pass by construction.
    let mut serial_stats = PlanCacheStats::default();
    let mut serial_runs = Vec::new();
    let mut serial_cell_ms = Vec::new();
    let t0 = std::time::Instant::now();
    for cell in &cells {
        let c0 = std::time::Instant::now();
        let mut arena = SystemArena::new();
        serial_runs.push(cases[cell.case].run_in(cell.pes, cell.opt, 1, &mut arena));
        serial_cell_ms.push(c0.elapsed().as_secs_f64() * 1e3);
        serial_stats = serial_stats.merge(&arena.take_extension::<PlanCache>().snapshot());
    }
    let wall_serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Warm serial pass (--warm-serial): the same cells on one worker
    // again, but sharing ONE arena across all cells — every cell past
    // the first hits the plan cache and reuses pooled systems and
    // staging buffers. Against the cold pass above (fresh arena per
    // cell) this isolates pure plan and arena reuse with the schedule
    // held fixed at one thread.
    let warm = if args.warm_serial {
        let mut arena = SystemArena::new();
        let t0 = std::time::Instant::now();
        let mut warm_runs = Vec::with_capacity(cells.len());
        for cell in &cells {
            warm_runs.push(cases[cell.case].run_in(cell.pes, cell.opt, 1, &mut arena));
        }
        let wall_warm_ms = t0.elapsed().as_secs_f64() * 1e3;
        let stats = arena.take_extension::<PlanCache>().snapshot();
        for ((cell, cold), warm_run) in cells.iter().zip(&serial_runs).zip(&warm_runs) {
            assert!(
                cold == warm_run,
                "warm serial pass diverges from cold reference for {} {} {:?}",
                cases[cell.case].app,
                cases[cell.case].dataset,
                cell.opt
            );
        }
        Some((wall_warm_ms, stats))
    } else {
        None
    };

    // Parallel sweep: same cells on the work-stealing pool, with parallel
    // host kernels and per-worker system arenas — whose pooled plan
    // caches additionally reuse plans *across* consecutive cells. The
    // pooled stats sum those per-worker caches.
    let t0 = std::time::Instant::now();
    let (parallel_runs, pool_stats) = apps::run_app_sweep_with_stats(&cases, &cells, budget);
    let wall_parallel_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (serial_hits, serial_misses) = (serial_stats.hits, serial_stats.misses);
    let (pool_hits, pool_misses) = (pool_stats.hits, pool_stats.misses);

    // The sweep pool is purely an execution knob: any modeled divergence
    // from the serial reference is a correctness bug, not a trade-off.
    for ((cell, serial), parallel) in cells.iter().zip(&serial_runs).zip(&parallel_runs) {
        assert!(
            serial == parallel,
            "parallel sweep diverges from serial reference for {} {} {:?}",
            cases[cell.case].app,
            cases[cell.case].dataset,
            cell.opt
        );
    }

    let mut rows = Vec::new();
    for ((cell, run), cell_ms) in cells.iter().zip(&serial_runs).zip(&serial_cell_ms) {
        let case = &cases[cell.case];
        let modeled_ns = run.profile.total_ns();
        eprintln!(
            "{:<10} {:<4} {:<9}: wall {cell_ms:>9.1} ms   modeled {:>9.2} ms",
            case.app,
            case.dataset,
            format!("{:?}", cell.opt),
            modeled_ns / 1e6,
        );
        rows.push(format!(
            "    {{ \"app\": \"{}\", \"dataset\": \"{}\", \"opt\": \"{:?}\", \"pes\": {}, \"wall_serial_ms\": {cell_ms:.3}, \"modeled_ms\": {:.6}, \"modeled_bits\": \"{:016x}\", \"validated\": {} }}",
            case.app,
            case.dataset,
            cell.opt,
            cell.pes,
            modeled_ns / 1e6,
            modeled_ns.to_bits(),
            run.validated
        ));
    }

    let speedup = wall_serial_ms / wall_parallel_ms;
    eprintln!(
        "sweep wall-clock: serial {wall_serial_ms:.0} ms, parallel {wall_parallel_ms:.0} ms \
         ({speedup:.2}x, {} workers x {} engine threads); modeled times bit-identical",
        budget.workers, budget.engine_threads
    );
    eprintln!(
        "plan cache: serial pass {serial_hits} hits / {serial_misses} misses, \
         pooled pass {pool_hits} hits / {pool_misses} misses (per-worker arena caches)"
    );
    // Metadata records the budget that actually ran: the resolved total
    // and the `SweepBudget` split — never the raw environment string.
    let resolved = if args.threads == 0 {
        auto_threads()
    } else {
        args.threads
    };
    let warm_json = match &warm {
        Some((wall_warm_ms, stats)) => {
            eprintln!(
                "warm serial pass: {wall_warm_ms:.0} ms ({:.2}x vs cold serial), \
                 plan cache {} hits / {} misses; modeled times bit-identical",
                wall_serial_ms / wall_warm_ms,
                stats.hits,
                stats.misses
            );
            format!(
                "  \"warm_serial\": {{ \"wall_ms\": {wall_warm_ms:.3}, \"speedup_vs_cold\": {:.4}, \"plan_cache_hits\": {}, \"plan_cache_misses\": {} }},\n",
                wall_serial_ms / wall_warm_ms,
                stats.hits,
                stats.misses
            )
        }
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"benchmark\": \"{label} app sweep, {pes} PEs, Baseline+Full per case\",\n  \"threads\": {},\n  \"workers\": {},\n  \"engine_threads\": {},\n  \"wall_serial_ms\": {wall_serial_ms:.3},\n  \"wall_parallel_ms\": {wall_parallel_ms:.3},\n  \"parallel_speedup\": {speedup:.4},\n  \"plan_cache\": {{ \"serial_hits\": {serial_hits}, \"serial_misses\": {serial_misses}, \"pooled_hits\": {pool_hits}, \"pooled_misses\": {pool_misses} }},\n{warm_json}  \"modeled_bit_identical\": true,\n  \"results\": [\n{}\n  ],\n  \"reference\": {}\n}}\n",
        resolved,
        budget.workers,
        budget.engine_threads,
        rows.join(",\n"),
        read_reference(args.reference.as_deref()).trim_end()
    );
    if let Some(check) = &args.check {
        check_modeled_bits(&json, check, args.cells.is_some());
    }
    std::fs::write(&args.output, json)
        .unwrap_or_else(|e| die(format_args!("cannot write {}: {e}", args.output)));
    eprintln!("wrote {}", args.output);
}

// ---- design-space sweep ----------------------------------------------
//
// Extended fig19/fig20/fig22-style grids, scored with cost-only plan
// execution. Cells reuse the app-sweep key schema (`app/dataset/opt/pes`
// + `modeled_bits`) so the tolerant scanner and `--check` work unchanged.

/// One pre-planned cell of the design-space sweep.
struct DesignCell {
    sweep: &'static str,
    label: String,
    pes: usize,
    geom: pim_sim::DimmGeometry,
    plan: pidcomm::CollectivePlan,
}

fn design_plan(
    geom: pim_sim::DimmGeometry,
    dims: Vec<usize>,
    mask: &str,
    bytes: usize,
    dtype: pidcomm::DType,
    prim: Primitive,
) -> pidcomm::CollectivePlan {
    use pidcomm::{BufferSpec, Communicator, HypercubeManager, HypercubeShape, ReduceKind};
    let manager = HypercubeManager::new(HypercubeShape::new(dims).unwrap(), geom).unwrap();
    // Destination window clear of every primitive's source extent here
    // (AR/RS/AA/Reduce read [0, b)).
    let dst = 2 * bytes.next_multiple_of(64) + 64;
    let spec = BufferSpec::new(0, dst, bytes).with_dtype(dtype);
    Communicator::new(manager)
        .with_opt(OptLevel::Full)
        .with_threads(1)
        .plan(prim, &mask.parse().unwrap(), &spec, ReduceKind::Sum)
        .unwrap()
}

fn design_cells() -> Vec<DesignCell> {
    use pidcomm::DType;
    use pim_sim::DimmGeometry;

    let mut cells = Vec::new();

    // fig19-extended: PE-count scaling, 1-D and 2-D, AllReduce.
    for &pes in &[64usize, 128, 256, 512, 1024] {
        cells.push(DesignCell {
            sweep: "fig19x-1D",
            label: "AR".into(),
            pes,
            geom: DimmGeometry::with_pes(pes),
            plan: design_plan(
                DimmGeometry::with_pes(pes),
                vec![pes],
                "1",
                64 * 1024,
                DType::U64,
                Primitive::AllReduce,
            ),
        });
        let x = 1usize << (pes.trailing_zeros() / 2);
        cells.push(DesignCell {
            sweep: "fig19x-2D",
            label: "AR".into(),
            pes,
            geom: DimmGeometry::with_pes(pes),
            plan: design_plan(
                DimmGeometry::with_pes(pes),
                vec![x, pes / x],
                "10",
                8 * 1024,
                DType::U64,
                Primitive::AllReduce,
            ),
        });
    }

    // fig20-extended: every ordered 3-D power-of-two shape over 1024 PEs
    // (the paper's figure plots ten of these 36), AllReduce along x.
    for ax in 1u32..=8 {
        for ay in 1u32..=(9 - ax) {
            let az = 10 - ax - ay;
            let dims = vec![1usize << ax, 1usize << ay, 1usize << az];
            let bytes = (8 * dims[0] * 32).max(4096);
            cells.push(DesignCell {
                sweep: "fig20x",
                label: format!("{}x{}x{}", dims[0], dims[1], dims[2]),
                pes: 1024,
                geom: DimmGeometry::upmem_1024(),
                plan: design_plan(
                    DimmGeometry::upmem_1024(),
                    dims,
                    "100",
                    bytes,
                    DType::U64,
                    Primitive::AllReduce,
                ),
            });
        }
    }

    // fig22-extended: word-width sensitivity on the reducing primitives.
    for prim in [
        Primitive::ReduceScatter,
        Primitive::AllReduce,
        Primitive::Reduce,
    ] {
        for dtype in [DType::U8, DType::U16, DType::U32, DType::U64] {
            cells.push(DesignCell {
                sweep: "fig22x",
                label: format!("{}/{dtype}", prim.abbrev()),
                pes: 1024,
                geom: DimmGeometry::upmem_1024(),
                plan: design_plan(
                    DimmGeometry::upmem_1024(),
                    vec![32, 32],
                    "10",
                    8 * 1024,
                    dtype,
                    prim,
                ),
            });
        }
    }
    cells
}

/// ns per cost-only evaluation, amortized over enough iterations to fill
/// ~2 ms (one evaluation is microseconds).
fn time_cost_only(plan: &pidcomm::CollectivePlan, model: &pim_sim::TimeModel) -> f64 {
    use std::hint::black_box;
    let t0 = std::time::Instant::now();
    let mut iters = 0u64;
    while t0.elapsed().as_micros() < 2_000 {
        black_box(black_box(plan).cost_only_report(model));
        iters += 1;
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn run_design_sweep(args: &Args) {
    use pim_sim::{PimSystem, TimeModel};

    let model = TimeModel::upmem();
    let cells = design_cells();
    let mut rows = Vec::new();
    let mut cost_total_ns = 0.0;
    let mut functional_total_ns = 0.0;

    for cell in &cells {
        let report = cell.plan.cost_only_report(&model);
        let cost_ns = time_cost_only(&cell.plan, &model);
        cost_total_ns += cost_ns;

        let functional_field = if args.cost_only {
            "null".to_string()
        } else {
            // One functional run: cross-check the analytic bits, time the
            // wall-clock the analytic path replaces.
            let mut sys = PimSystem::with_model(cell.geom, model.clone());
            let b = cell.plan.spec().bytes_per_node;
            for pe in cell.geom.pes() {
                let fill: Vec<u8> = (0..b)
                    .map(|i| ((pe.0 as usize + i * 13) % 251) as u8)
                    .collect();
                sys.pe_mut(pe).write(0, &fill);
            }
            let t0 = std::time::Instant::now();
            let functional = match cell.plan.primitive() {
                Primitive::Reduce => cell.plan.execute_to_host(&mut sys).unwrap().0,
                _ => cell.plan.execute(&mut sys).unwrap(),
            };
            let wall_ns = t0.elapsed().as_nanos() as f64;
            assert!(
                functional == report,
                "{}/{}: cost-only report diverges from the functional engine",
                cell.sweep,
                cell.label
            );
            functional_total_ns += wall_ns;
            format!("{wall_ns:.1}")
        };

        let modeled_ns = report.time_ns();
        eprintln!(
            "{:<9} {:<10} {:>5} PEs: modeled {:>10.1} us, analytic {cost_ns:>8.1} ns/eval{}",
            cell.sweep,
            cell.label,
            cell.pes,
            modeled_ns / 1e3,
            if args.cost_only { "" } else { " (checked)" }
        );
        rows.push(format!(
            "    {{ \"app\": \"{}\", \"dataset\": \"{}\", \"opt\": \"{:?}\", \"pes\": {}, \"modeled_ms\": {:.6}, \"modeled_bits\": \"{:016x}\", \"cost_only_wall_ns\": {cost_ns:.1}, \"functional_wall_ns\": {functional_field} }}",
            cell.sweep,
            cell.label,
            cell.plan.opt(),
            cell.pes,
            modeled_ns / 1e6,
            modeled_ns.to_bits(),
        ));
    }

    let speedup_field = if args.cost_only {
        "null".to_string()
    } else {
        let speedup = functional_total_ns / cost_total_ns;
        eprintln!(
            "analytic speedup: functional {:.1} ms vs cost-only {:.3} ms across {} cells ({speedup:.0}x)",
            functional_total_ns / 1e6,
            cost_total_ns / 1e6,
            cells.len()
        );
        format!("{speedup:.1}")
    };
    let json = format!(
        "{{\n  \"benchmark\": \"design-space sweep (fig19x/fig20x/fig22x), cost-only plan execution\",\n  \"mode\": \"{}\",\n  \"cost_only\": {{ \"cost_only_wall_ms\": {:.4}, \"functional_wall_ms\": {}, \"analytic_speedup\": {speedup_field} }},\n  \"results\": [\n{}\n  ],\n  \"reference\": {}\n}}\n",
        if args.cost_only { "cost_only" } else { "full" },
        cost_total_ns / 1e6,
        if args.cost_only {
            "null".to_string()
        } else {
            format!("{:.4}", functional_total_ns / 1e6)
        },
        rows.join(",\n"),
        read_reference(args.reference.as_deref()).trim_end()
    );
    if let Some(check) = &args.check {
        check_modeled_bits(&json, check, false);
    }
    std::fs::write(&args.output, json)
        .unwrap_or_else(|e| die(format_args!("cannot write {}: {e}", args.output)));
    eprintln!("wrote {}", args.output);
}

// ---- autotune sweep --------------------------------------------------
//
// The analytic autotuner against each application's dominant collective
// (at its actual default shape) and fig20-style defaults: how much
// modeled time does exhaustive shape search buy, and how long does the
// search itself take.

fn run_autotune_sweep(args: &Args) {
    use pidcomm::{
        autotune, BufferSpec, Communicator, DType, HypercubeManager, HypercubeShape, ReduceKind,
        TuneRequest,
    };
    use pim_sim::{DimmGeometry, TimeModel};

    struct TuneCase {
        app: &'static str,
        dataset: &'static str,
        prim: Primitive,
        bytes: usize,
        dtype: DType,
        default_dims: Vec<usize>,
        default_mask: &'static str,
    }

    // The five applications' dominant collectives at their 1024-PE
    // default shapes (see crates/apps), plus fig20 defaults.
    let mut tune_cases = vec![
        TuneCase {
            app: "MLP",
            dataset: "ReduceScatter",
            prim: Primitive::ReduceScatter,
            bytes: 16 * 1024,
            dtype: DType::I32,
            default_dims: vec![1024],
            default_mask: "1",
        },
        TuneCase {
            app: "DLRM",
            dataset: "AlltoAll",
            prim: Primitive::AlltoAll,
            bytes: 4096,
            dtype: DType::I32,
            default_dims: vec![8, 16, 8],
            default_mask: "010",
        },
        TuneCase {
            app: "GNN RS&AR",
            dataset: "ReduceScatter",
            prim: Primitive::ReduceScatter,
            bytes: 8192,
            dtype: DType::I32,
            default_dims: vec![32, 32],
            default_mask: "10",
        },
        TuneCase {
            app: "BFS",
            dataset: "AllReduce",
            prim: Primitive::AllReduce,
            bytes: 8192,
            dtype: DType::U8,
            default_dims: vec![1024],
            default_mask: "1",
        },
        TuneCase {
            app: "CC",
            dataset: "AllReduce",
            prim: Primitive::AllReduce,
            bytes: 8192,
            dtype: DType::U32,
            default_dims: vec![1024],
            default_mask: "1",
        },
    ];
    for dims in [vec![8, 64, 2], vec![128, 4, 2], vec![64, 4, 4]] {
        tune_cases.push(TuneCase {
            app: "fig20",
            dataset: ["8x64x2", "128x4x2", "64x4x4"][tune_cases.len() - 5],
            prim: Primitive::AllReduce,
            bytes: (8 * dims[0] * 32).max(4096),
            dtype: DType::U64,
            default_dims: dims,
            default_mask: "100",
        });
    }

    let geom = DimmGeometry::upmem_1024();
    let model = TimeModel::upmem();
    let mut rows = Vec::new();
    for case in &tune_cases {
        let dst = case.bytes.next_multiple_of(64).max(64 * 1024);
        let spec = BufferSpec::new(0, dst, case.bytes).with_dtype(case.dtype);
        let manager = HypercubeManager::new(
            HypercubeShape::new(case.default_dims.clone()).unwrap(),
            geom,
        )
        .unwrap();
        let default_plan = Communicator::new(manager)
            .with_threads(1)
            .plan(
                case.prim,
                &case.default_mask.parse().unwrap(),
                &spec,
                ReduceKind::Sum,
            )
            .unwrap();
        let default_ns = default_plan.cost_only_report(&model).time_ns();

        let t0 = std::time::Instant::now();
        let (_, report) = autotune(&TuneRequest::new(case.prim, spec, geom), &model).unwrap();
        let tune_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let best = report.best();
        let tuned_ns = best.modeled_ns;
        assert!(
            tuned_ns <= default_ns,
            "{}/{}: tuned plan ({tuned_ns} ns) lost to the default shape ({default_ns} ns)",
            case.app,
            case.dataset
        );
        let dims_label = best
            .dims
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("x");
        eprintln!(
            "{:<10} {:<13}: default {:>10.1} us -> tuned {:>10.1} us ({:>5.2}x) [{} @ {}], {} explored / {} skipped in {tune_wall_ms:.0} ms",
            case.app,
            case.dataset,
            default_ns / 1e3,
            tuned_ns / 1e3,
            default_ns / tuned_ns,
            dims_label,
            best.mask,
            report.explored.len(),
            report.skipped
        );
        rows.push(format!(
            "    {{ \"app\": \"{}\", \"dataset\": \"{}\", \"opt\": \"{:?}\", \"pes\": 1024, \"default_ns\": {default_ns:.3}, \"tuned_ns\": {tuned_ns:.3}, \"modeled_bits\": \"{:016x}\", \"improvement\": {:.4}, \"tuned_dims\": \"{dims_label}\", \"tuned_mask\": \"{}\", \"explored\": {}, \"skipped\": {}, \"tune_wall_ms\": {tune_wall_ms:.2} }}",
            case.app,
            case.dataset,
            best.opt,
            tuned_ns.to_bits(),
            default_ns / tuned_ns,
            best.mask,
            report.explored.len(),
            report.skipped
        ));
    }

    let json = format!(
        "{{\n  \"benchmark\": \"analytic plan autotuner vs application default shapes, 1024 PEs\",\n  \"results\": [\n{}\n  ],\n  \"reference\": {}\n}}\n",
        rows.join(",\n"),
        read_reference(args.reference.as_deref()).trim_end()
    );
    if let Some(check) = &args.check {
        check_modeled_bits(&json, check, false);
    }
    std::fs::write(&args.output, json)
        .unwrap_or_else(|e| die(format_args!("cannot write {}: {e}", args.output)));
    eprintln!("wrote {}", args.output);
}

// ---- chaos soak ------------------------------------------------------
//
// The five small application cases under seeded fault profiles and
// recovery policies (see `pidcomm_bench::chaos`). Cells reuse the
// app-sweep key schema (`app/dataset/opt/pes` + `modeled_bits`, with the
// fault profile and policy column folded into the dataset label), so the
// tolerant scanner and `--check` work unchanged.

fn run_chaos_sweep(args: &Args) {
    use pidcomm_bench::chaos;

    let pes = 64;
    let cases = chaos::cases();
    let plain = apps::small_cases();
    let cells = chaos::soak_cells(cases.len());
    let mut arena = SystemArena::new();
    let mut rows = Vec::new();
    for cell in &cells {
        let case = &cases[cell.case];
        let t0 = std::time::Instant::now();
        let run = case.run_in(pes, cell.profile.plan(cell.seed), cell.policy(), &mut arena);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if cell.profile == chaos::FaultProfile::Clean {
            // Both case lists drive the same runner, so with no fault
            // plan the cell must equal the fault-free sweep's — profile,
            // CPU reference and validation — unless the two lists'
            // configurations drifted apart.
            let reference = plain[cell.case].run_in(pes, OptLevel::Full, 1, &mut arena);
            assert!(
                run.run == reference,
                "{}: clean chaos cell diverges from the fault-free sweep cell",
                case.app
            );
        }
        let quarantined = run.quarantined.len();
        eprintln!(
            "{:<10} {:<14}: {:<17} retries {:>2}, quarantined {quarantined:>2}, mismatched {:>6}, modeled {:>9.2} ms (wall {wall_ms:>7.1} ms)",
            case.app,
            cell.dataset(),
            run.outcome.label(),
            run.retries,
            run.mismatched,
            run.modeled_ns / 1e6,
        );
        rows.push(format!(
            "    {{ \"app\": \"{}\", \"dataset\": \"{}\", \"opt\": \"Full\", \"pes\": {pes}, \"wall_ms\": {wall_ms:.3}, \"modeled_ms\": {:.6}, \"modeled_bits\": \"{:016x}\", \"outcome\": \"{}\", \"retries\": {}, \"backoff_epochs\": {}, \"checkpoint_restores\": {}, \"quarantined\": {quarantined}, \"mismatched\": {}, \"validated\": {} }}",
            case.app,
            cell.dataset(),
            run.modeled_ns / 1e6,
            run.modeled_ns.to_bits(),
            run.outcome.label(),
            run.retries,
            run.backoff_epochs,
            run.checkpoint_restores,
            run.mismatched,
            run.run.validated,
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"chaos soak, {} small cases x seeded fault profiles x quarantine policies, {pes} PEs, OptLevel::Full\",\n  \"results\": [\n{}\n  ],\n  \"reference\": {}\n}}\n",
        cases.len(),
        rows.join(",\n"),
        read_reference(args.reference.as_deref()).trim_end()
    );
    if let Some(check) = &args.check {
        check_modeled_bits(&json, check, false);
    }
    std::fs::write(&args.output, json)
        .unwrap_or_else(|e| die(format_args!("cannot write {}: {e}", args.output)));
    eprintln!("wrote {}", args.output);
}

fn main() {
    let args = parse_args();
    if args.apps {
        run_app_sweep(&args);
    } else if args.kernels {
        run_kernel_sweep(&args);
    } else if args.design {
        run_design_sweep(&args);
    } else if args.autotune {
        run_autotune_sweep(&args);
    } else if args.chaos {
        run_chaos_sweep(&args);
    } else {
        run_primitive_sweep(&args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(key: &str, bits: &str) -> CellBits {
        CellBits {
            key: key.into(),
            bits: bits.into(),
        }
    }

    #[test]
    fn extracts_cells_regardless_of_key_order() {
        let report = r#"{
  "benchmark": "x",
  "results": [
    { "app": "MLP", "dataset": "sm", "opt": "Full", "pes": 64, "modeled_bits": "00ab" },
    { "modeled_bits": "00cd", "pes": 64, "opt": "Baseline", "app": "CC", "dataset": "sm" }
  ],
  "reference": null
}"#;
        assert_eq!(
            extract_cells(report).unwrap(),
            vec![
                cell("MLP/sm/Full/64", "00ab"),
                cell("CC/sm/Baseline/64", "00cd")
            ]
        );
    }

    #[test]
    fn kernel_cells_key_on_kernel_and_case() {
        let report = r#"{
  "benchmark": "kernels",
  "results": [
    { "kernel": "relu_i32", "case": "4101", "wall_ns": 120.5, "checksum": "00000000deadbeef" },
    { "checksum": "0000000000000042", "case": "i8x16391", "kernel": "decode_sext", "wall_ns": 1.0, "scalar_ref_ns": 2.0, "speedup": 2.0 }
  ],
  "reference": null
}"#;
        assert_eq!(
            extract_cells(report).unwrap(),
            vec![
                cell("relu_i32/4101", "00000000deadbeef"),
                cell("decode_sext/i8x16391", "0000000000000042")
            ]
        );
    }

    #[test]
    fn embedded_reference_report_is_excluded() {
        let outer = r#"{
  "results": [ { "app": "BFS", "dataset": "LJ", "opt": "Full", "pes": 1024, "modeled_bits": "0001" } ],
  "reference": {
    "results": [ { "app": "BFS", "dataset": "LJ", "opt": "Full", "pes": 1024, "modeled_bits": "ffff" } ],
    "reference": null
  }
}"#;
        assert_eq!(
            extract_cells(outer).unwrap(),
            vec![cell("BFS/LJ/Full/1024", "0001")]
        );
    }

    #[test]
    fn hostile_names_do_not_corrupt_extraction() {
        // An app literally named after the keys the old string-splitting
        // extractor matched on, plus a "results" string value before the
        // real array.
        let report = r#"{
  "benchmark": "results",
  "note": "the string \"reference\": appears here, and modeled_bits too",
  "results": [
    { "app": "reference", "dataset": "modeled_bits", "opt": "Full", "pes": 8, "modeled_bits": "0042" }
  ],
  "reference": null
}"#;
        assert_eq!(
            extract_cells(report).unwrap(),
            vec![cell("reference/modeled_bits/Full/8", "0042")]
        );
    }

    #[test]
    fn malformed_reports_error_instead_of_passing_empty() {
        assert!(extract_cells("{}").is_err(), "no results array");
        assert!(
            extract_cells(r#"{ "results": 7 }"#).is_err(),
            "results not an array"
        );
        assert!(
            extract_cells(r#"{ "results": [ { "app": "MLP" } ] }"#)
                .unwrap_err()
                .contains("dataset"),
            "missing field names the first absent field"
        );
        assert!(
            extract_cells(
                r#"{ "results": [ { "app": "MLP", "dataset": "sm", "opt": "Full", "pes": 64 } ] }"#
            )
            .unwrap_err()
            .contains("modeled_bits"),
            "missing bits names the field"
        );
        assert!(
            extract_cells(r#"{ "results": [ { "app": "MLP }"#).is_err(),
            "unterminated string/object"
        );
    }

    #[test]
    fn real_report_shape_roundtrips() {
        // The exact row format run_app_sweep writes.
        let row = format!(
            "{{\n  \"benchmark\": \"b\",\n  \"threads\": 4,\n  \"results\": [\n    {{ \"app\": \"GNN RS&AR\", \"dataset\": \"PM\", \"opt\": \"Full\", \"pes\": 1024, \"wall_serial_ms\": 12.5, \"modeled_ms\": 1.25, \"modeled_bits\": \"{:016x}\", \"validated\": true }}\n  ],\n  \"reference\": null\n}}\n",
            1.25e6f64.to_bits()
        );
        let cells = extract_cells(&row).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].key, "GNN RS&AR/PM/Full/1024");
        assert_eq!(cells[0].bits, format!("{:016x}", 1.25e6f64.to_bits()));
    }
}
