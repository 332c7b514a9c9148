//! Unit tests of the whole processor (moved out of the `core` orchestrator
//! when the stage modules were split off, so the orchestrator stays thin).

use crate::config::PipelineConfig;
use crate::core::Processor;
use ltp_isa::{ArchReg, BranchInfo, DynInst, MemAccess, OpClass, Pc, StaticInst, VecStream};

/// A simple dependent-ALU-chain program: every instruction depends on the
/// previous one.
fn alu_chain(n: u64) -> Vec<DynInst> {
    (0..n)
        .map(|s| {
            DynInst::new(
                s,
                StaticInst::new(Pc(0x1000 + 4 * (s % 16)), OpClass::IntAlu)
                    .with_dst(ArchReg::int(1))
                    .with_src(ArchReg::int(1)),
            )
        })
        .collect()
}

/// Independent ALU instructions across many registers (high ILP).
fn alu_parallel(n: u64) -> Vec<DynInst> {
    (0..n)
        .map(|s| {
            let r = (s % 16 + 1) as usize;
            DynInst::new(
                s,
                StaticInst::new(Pc(0x2000 + 4 * (s % 32)), OpClass::IntAlu)
                    .with_dst(ArchReg::int(r))
                    .with_src(ArchReg::int(((s + 1) % 16 + 1) as usize)),
            )
        })
        .collect()
}

/// A pointer-chase-like loop: loads to far apart addresses feeding each
/// other, plus a few dependent ALU ops.
fn missy_loads(n: u64) -> Vec<DynInst> {
    let mut out = Vec::new();
    let mut seq = 0;
    for i in 0..n {
        let addr = 0x1000_0000u64 + (i.wrapping_mul(2_654_435_761) % 500_000) * 4096;
        out.push(
            DynInst::new(
                seq,
                StaticInst::new(Pc(0x3000), OpClass::Load)
                    .with_dst(ArchReg::int(2))
                    .with_src(ArchReg::int(1)),
            )
            .with_mem(MemAccess::qword(addr)),
        );
        seq += 1;
        out.push(DynInst::new(
            seq,
            StaticInst::new(Pc(0x3004), OpClass::IntAlu)
                .with_dst(ArchReg::int(3))
                .with_src(ArchReg::int(2)),
        ));
        seq += 1;
        out.push(DynInst::new(
            seq,
            StaticInst::new(Pc(0x3008), OpClass::IntAlu)
                .with_dst(ArchReg::int(1))
                .with_src(ArchReg::int(1)),
        ));
        seq += 1;
        out.push(
            DynInst::new(seq, StaticInst::new(Pc(0x300c), OpClass::Branch)).with_branch(
                BranchInfo {
                    taken: true,
                    target: Pc(0x3000),
                },
            ),
        );
        seq += 1;
    }
    out
}

#[test]
fn all_instructions_commit() {
    let mut p = Processor::new(PipelineConfig::micro2015_baseline());
    let r = p
        .run(VecStream::new("chain", alu_chain(500)), 10_000)
        .unwrap();
    assert_eq!(r.instructions, 500);
    assert!(r.cycles > 0);
}

#[test]
fn dependent_chain_is_about_one_ipc_max() {
    let mut p = Processor::new(PipelineConfig::micro2015_baseline());
    let r = p
        .run(VecStream::new("chain", alu_chain(2000)), 10_000)
        .unwrap();
    // A fully dependent chain of 1-cycle ALUs cannot beat 1 IPC.
    assert!(r.cpi() >= 0.99, "cpi {}", r.cpi());
    assert!(
        r.cpi() < 3.0,
        "a simple chain should not be much slower, cpi {}",
        r.cpi()
    );
}

#[test]
fn independent_alus_exploit_width() {
    let mut p = Processor::new(PipelineConfig::micro2015_baseline());
    let r = p
        .run(VecStream::new("parallel", alu_parallel(4000)), 10_000)
        .unwrap();
    assert!(
        r.ipc() > 2.0,
        "independent ALU ops should reach multi-issue IPC, got {}",
        r.ipc()
    );
}

#[test]
fn loads_that_miss_are_long_latency() {
    let mut p = Processor::new(PipelineConfig::micro2015_baseline());
    let r = p
        .run(VecStream::new("missy", missy_loads(200)), 10_000)
        .unwrap();
    assert!(
        r.llc_miss_loads > 50,
        "most far loads should miss, got {}",
        r.llc_miss_loads
    );
    assert!(r.mem.avg_latency() > 12.0);
    assert!(r.cpi() > 1.0);
}

#[test]
fn ltp_design_commits_everything_too() {
    let mut p = Processor::new(PipelineConfig::ltp_proposed());
    let r = p
        .run(VecStream::new("missy", missy_loads(300)), 10_000)
        .unwrap();
    assert_eq!(r.instructions, 300 * 4);
    assert!(
        r.ltp.total_parked() > 0,
        "the LTP must park something on a missy workload"
    );
    assert!(r.ltp_enabled_fraction > 0.0);
}

#[test]
fn ltp_never_loses_instructions_on_compute_bound_code() {
    let mut p = Processor::new(PipelineConfig::ltp_proposed());
    let r = p
        .run(VecStream::new("parallel", alu_parallel(3000)), 10_000)
        .unwrap();
    assert_eq!(r.instructions, 3000);
    // The monitor should keep LTP off nearly the whole time.
    assert!(
        r.ltp_enabled_fraction < 0.2,
        "monitor should gate LTP on compute-bound code, enabled {}",
        r.ltp_enabled_fraction
    );
}

#[test]
fn small_iq_hurts_memory_level_parallelism() {
    let big = Processor::new(PipelineConfig::limit_study_unlimited().with_iq(256))
        .run(VecStream::new("missy", missy_loads(400)), 100_000)
        .unwrap();
    let small = Processor::new(PipelineConfig::limit_study_unlimited().with_iq(16))
        .run(VecStream::new("missy", missy_loads(400)), 100_000)
        .unwrap();
    assert!(
        big.cpi() <= small.cpi() + 1e-9,
        "a larger IQ must not be slower ({} vs {})",
        big.cpi(),
        small.cpi()
    );
}

#[test]
fn warmup_excludes_initial_instructions() {
    let cfg = PipelineConfig::micro2015_baseline().with_warmup(100);
    let mut p = Processor::new(cfg);
    let r = p
        .run(VecStream::new("chain", alu_chain(400)), 10_000)
        .unwrap();
    assert_eq!(r.instructions, 300);
}

#[test]
fn occupancy_and_activity_are_recorded() {
    let mut p = Processor::new(PipelineConfig::micro2015_baseline());
    let r = p
        .run(VecStream::new("parallel", alu_parallel(1000)), 10_000)
        .unwrap();
    assert!(r.occupancy.rob.mean() > 0.0);
    assert!(r.occupancy.iq.cycles() > 0);
    assert!(r.activity.iq_writes >= 1000);
    assert!(r.activity.iq_issues >= 1000);
    assert!(r.activity.rf_writes >= 1000);
}

#[test]
fn stuck_machine_surfaces_deadlock_as_data() {
    use crate::result::RunError;
    // A front end so deep that no instruction ever reaches rename: the pipe
    // never drains, nothing ever commits, and the watchdog must fire with a
    // structured snapshot instead of a panic.
    let mut cfg = PipelineConfig::micro2015_baseline();
    cfg.frontend_delay = u64::MAX / 2;
    let mut p = Processor::new(cfg);
    let err = p
        .run(VecStream::new("stuck", alu_chain(4)), 10)
        .expect_err("a machine that cannot commit must deadlock");
    assert!(err.to_string().contains("deadlock"));
    let RunError::Deadlock { cycle, snapshot } = err else {
        panic!("expected a deadlock, got {err}");
    };
    assert!(cycle >= 500_000, "watchdog fired early at {cycle}");
    assert_eq!(snapshot.workload, "stuck");
    assert_eq!(snapshot.committed, 0);
    assert_eq!(snapshot.rob_len, 0, "nothing ever reached rename");
}

#[test]
fn oracle_config_without_attached_oracle_is_refused() {
    use crate::result::RunError;
    let cfg = PipelineConfig::micro2015_baseline().with_oracle(true);
    let mut p = Processor::new(cfg);
    let err = p
        .run(VecStream::new("unattached", alu_chain(10)), 10)
        .expect_err("running an oracle config without the oracle must fail");
    assert!(matches!(err, RunError::OracleNotAttached), "got {err}");
    // Attaching any oracle makes the same machine runnable.
    let mut p = Processor::new(cfg);
    p.set_oracle(ltp_core::OracleClassifier::from_parts(vec![], vec![]));
    let r = p
        .run(VecStream::new("attached", alu_chain(10)), 10)
        .unwrap();
    assert_eq!(r.instructions, 10);
    // A deliberate classifier override also counts as attached.
    let mut p = Processor::new(cfg);
    p.set_classifier(Box::new(ltp_core::RandomClassifier::new(50, 9)));
    let r = p
        .run(VecStream::new("override", alu_chain(10)), 10)
        .unwrap();
    assert_eq!(r.instructions, 10);
}

#[test]
fn observer_sees_bus_traffic_and_commit_order() {
    let mut p = Processor::new(PipelineConfig::micro2015_baseline());
    let mut last_commit: Option<u64> = None;
    let mut total_commits = 0u64;
    let mut total_wakeups = 0u64;
    let r = p
        .run_observed(
            VecStream::new("parallel", alu_parallel(500)),
            10_000,
            |view| {
                for slot in &view.bus.commits {
                    if let Some(prev) = last_commit {
                        assert!(prev < slot.seq.0, "commit order must be monotonic");
                    }
                    last_commit = Some(slot.seq.0);
                    total_commits += 1;
                }
                total_wakeups += view.bus.reg_wakeups.len() as u64;
                assert!(view.int_regs.allocated <= view.int_regs.capacity);
            },
        )
        .unwrap();
    assert_eq!(total_commits, r.instructions);
    assert!(total_wakeups >= r.instructions, "every writer wakes the IQ");
}

// --- event-proportional run loop vs. the per-cycle reference ----------------

mod differential {
    use crate::config::PipelineConfig;
    use crate::core::{CycleView, Processor};
    use crate::frontend::FrontEnd;
    use crate::result::{RunError, RunResult};
    use crate::snapshot::Snapshot;
    use ltp_core::{LtpMode, OracleAnalysis};
    use ltp_isa::{DynInst, InstStream, SliceStream};
    use ltp_mem::Cycle;
    use ltp_workloads::{trace, WorkloadKind};
    use proptest::prelude::*;

    /// The per-cycle reference loop: `cycle()` on every simulated cycle,
    /// with the stop, measurement and watchdog rules of the run loop. Also
    /// counts the cycles the run loop's quiescence test would have skipped,
    /// checking that each of them really was a no-op.
    fn reference<S: InstStream>(
        cpu: &mut Processor,
        fe: &mut FrontEnd<S>,
        stop_at: u64,
        mut measured: Option<(Cycle, u64)>,
    ) -> Result<(Option<(Cycle, u64)>, u64), RunError> {
        cpu.check_oracle()?;
        let warmup = cpu.state.cfg.warmup_insts;
        let mut quiet = 0;
        while cpu.state.thread.committed < stop_at
            && !(fe.is_drained() && cpu.state.thread.rob.is_empty())
        {
            let idle = cpu.quiet_until(fe).is_some();
            let before = (
                fe.fetched(),
                cpu.state.thread.rob.len(),
                cpu.state.thread.iq.len(),
            );
            cpu.cycle(std::slice::from_mut(fe), u64::MAX);
            if idle {
                // The quiescence test promised a no-op cycle.
                quiet += 1;
                let bus = &cpu.buses[0];
                let after = (
                    fe.fetched(),
                    cpu.state.thread.rob.len(),
                    cpu.state.thread.iq.len(),
                );
                assert_eq!(
                    before, after,
                    "a quiescent cycle fetched, renamed or issued"
                );
                assert!(
                    bus.commits.is_empty()
                        && bus.reg_wakeups.is_empty()
                        && bus.seq_wakeups.is_empty()
                        && bus.ticket_clears.is_empty()
                        && bus.releases.is_empty(),
                    "a quiescent cycle produced stage-bus traffic"
                );
            }
            let committed = cpu.state.thread.committed;
            if measured.is_none() && warmup > 0 && committed >= warmup {
                measured = Some((cpu.state.now, committed));
            }
            if let Some(err) = cpu.deadlock_check("reference") {
                return Err(err);
            }
        }
        Ok((measured, quiet))
    }

    fn new_fe<'a>(cpu: &Processor, insts: &'a [DynInst]) -> FrontEnd<SliceStream<'a>> {
        let cfg = &cpu.state.cfg;
        FrontEnd::new(
            SliceStream::new("k", insts),
            cfg.frontend_delay,
            cfg.mispredict_penalty,
        )
    }

    /// The reference equivalent of [`Processor::run`].
    fn reference_run(cpu: &mut Processor, insts: &[DynInst], max: u64) -> (RunResult, u64) {
        let mut fe = new_fe(cpu, insts);
        let (measured, quiet) = reference(cpu, &mut fe, max, None).expect("no deadlock");
        let rate = fe.branch_predictor().misprediction_rate();
        let result = cpu.assemble_result("k".into(), measured.unwrap_or((0, 0)), rate);
        (result, quiet)
    }

    /// The reference equivalent of [`Processor::run_to_snapshot`].
    fn reference_snapshot(cpu: &mut Processor, insts: &[DynInst], at: u64) -> Snapshot {
        let mut fe = new_fe(cpu, insts);
        let (measured, _) = reference(cpu, &mut fe, at, None).expect("no deadlock");
        let pending = cpu.renames[0].pending.clone();
        Snapshot::capture(cpu, fe.export_state(), pending, measured).expect("capturable")
    }

    /// A full-detail machine for one differential case: `machine` picks the
    /// paper's configurations or the limit study, with the LTP mode, delayed
    /// LQ/SQ allocation, the oracle, the structure sizes and the LTP queue's
    /// ports, entries and tickets varied on top.
    #[allow(clippy::too_many_arguments)]
    fn machine(
        machine: usize,
        mode: usize,
        delay_lsq: bool,
        oracle: bool,
        (iq, regs): (usize, usize),
        (ports, entries, tickets): (usize, usize, usize),
        warmup: u64,
        insts: &[DynInst],
    ) -> Processor {
        let mut cfg = match machine {
            0 => PipelineConfig::micro2015_baseline(),
            1 => PipelineConfig::small_no_ltp(),
            2 => PipelineConfig::ltp_proposed(),
            _ => PipelineConfig::limit_study_unlimited().with_iq(iq),
        };
        if machine < 3 {
            cfg = cfg.with_iq(iq).with_regs(regs);
        }
        if !cfg.ltp.mode.is_enabled() {
            cfg.ltp = PipelineConfig::ltp_proposed().ltp;
        }
        cfg.ltp.mode = [
            LtpMode::Off,
            LtpMode::NonUrgentOnly,
            LtpMode::NonReadyOnly,
            LtpMode::Both,
        ][mode];
        cfg.ltp.ports = ports;
        cfg.ltp.entries = entries;
        cfg.ltp.num_tickets = tickets;
        cfg.delay_lsq_alloc = delay_lsq;
        let mut cfg = cfg.with_warmup(warmup);
        if oracle {
            cfg = cfg.with_oracle(true);
        }
        let mut cpu = Processor::new(cfg);
        if oracle {
            cpu.set_oracle(OracleAnalysis::new(128).analyze(insts, &cfg.mem));
        }
        cpu
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// `run`, and `run_to_snapshot` + `Snapshot::resume`, give exactly
        /// the reference's `RunResult` (cycles, occupancy means and peaks,
        /// LTP, activity and memory statistics) across kernels, machines,
        /// LTP modes (Non-Ready parking included), delayed LQ/SQ allocation,
        /// the limit study and the oracle; a snapshot taken by the run loop
        /// has the reference's exact bytes.
        #[test]
        fn skipping_quiescent_cycles_is_cycle_exact(
            kind in 0usize..7,
            seed in 0u64..1_000,
            shape in (0usize..4, 0usize..4, any::<bool>(), any::<bool>()),
            sizes in (8usize..64, 40usize..160),
            ltp in (1usize..6, 4usize..160, 1usize..16),
            len in (500usize..1_600, 0u64..300, 1u64..100),
        ) {
            let (which, mode, delay_lsq, oracle) = shape;
            let (n, warmup, snap_pct) = len;
            let kind = WorkloadKind::ALL[kind];
            let insts = trace(kind, seed, n);
            let max = n as u64 - (seed % 3) * 50;
            let build = || machine(which, mode, delay_lsq, oracle, sizes, ltp, warmup, &insts);

            let (expected, _) = reference_run(&mut build(), &insts, max);
            let expected = format!("{expected:?}");
            let got = build().run(SliceStream::new("k", &insts), max).expect("no deadlock");
            prop_assert_eq!(format!("{got:?}"), expected.clone());

            let at = max * snap_pct / 100;
            let snap = build()
                .run_to_snapshot(SliceStream::new("k", &insts), at)
                .expect("no deadlock");
            let reference_bytes = reference_snapshot(&mut build(), &insts, at).to_bytes();
            prop_assert!(snap.to_bytes() == reference_bytes, "snapshot bytes differ");
            let mut resumed = snap.resume();
            if oracle {
                let cfg = *snap.config();
                resumed.set_oracle(OracleAnalysis::new(128).analyze(&insts, &cfg.mem));
            }
            let resumed = resumed
                .run(SliceStream::new("k", &insts), max)
                .expect("no deadlock");
            prop_assert_eq!(format!("{resumed:?}"), expected);
        }
    }

    /// The observer of `run_observed` sees every simulated cycle once, in
    /// order, skipped ones included; on a skipped cycle the bus is empty.
    #[test]
    fn observer_sees_every_cycle() {
        let insts = trace(WorkloadKind::PointerChase, 3, 1_500);
        let mut cpu = Processor::new(PipelineConfig::ltp_proposed());
        let mut next = 0;
        let mut idle = 0;
        let result = cpu
            .run_observed(
                SliceStream::new("k", &insts),
                1_500,
                |view: &CycleView<'_>| {
                    assert_eq!(view.cycle, next, "observer skipped or repeated a cycle");
                    next += 1;
                    if view.bus.commits.is_empty() && view.bus.reg_wakeups.is_empty() {
                        idle += 1;
                    }
                },
            )
            .expect("no deadlock");
        assert_eq!(next, result.cycles);
        assert!(
            idle * 2 > next,
            "a pointer chase is mostly idle: {idle} of {next}"
        );
    }

    /// On memory-bound code most cycles are quiescent, so the differential
    /// test above exercises the skip path (and the skip is worth having).
    #[test]
    fn memory_bound_runs_are_mostly_quiescent() {
        for kind in [WorkloadKind::PointerChase, WorkloadKind::IndirectStream] {
            let insts = trace(kind, 11, 3_000);
            let mut cpu = Processor::new(PipelineConfig::ltp_proposed());
            let (expected, quiet) = reference_run(&mut cpu, &insts, 3_000);
            assert!(
                quiet * 2 > expected.cycles,
                "{}: only {quiet} of {} cycles quiescent",
                kind.name(),
                expected.cycles
            );
            let got = Processor::new(PipelineConfig::ltp_proposed())
                .run(SliceStream::new("k", &insts), 3_000)
                .expect("no deadlock");
            assert_eq!(format!("{got:?}"), format!("{expected:?}"));
        }
    }
}
