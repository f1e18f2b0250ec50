(** The fault-injection campaign: every requested device × both working
    modes × both walk engines, [plans_per_combo] seeded plans each,
    driven by short benign soaks under a remedy supervisor with the
    circuit breaker armed.

    One code path serves both fault directions ({!Plan.direction}):
    - {b Substrate}: guest-memory corruption and short reads, corrupted
      persisted specs (load-only: the corrupted bytes go through
      [Persist.of_string] and must be rejected or reload identically),
      and synthetic walk exceptions and latency spikes.
    - {b Hostile}: corrupted device responses — register read-returns,
      outbound DMA lengths, completion stores, IRQ storms — plus
      synthetic faults inside the guest-side validator.  Every combo
      chains the {!Guard.Validator} in front of the ES-Checker and feeds
      its anomalies to the remedy, so a hostile device trips the same
      rollback/breaker machinery as a guest-side exploit.

    Determinism contract (same as the experiment suite): per-combo seeds
    come from [Runner.map_seeded], so the report — including the JSON
    rendering — is bit-identical for any [jobs] value. *)

type options = {
  direction : Plan.direction;
  devices : string list;  (** Device names ([Workload.Samples.find]). *)
  plans_per_combo : int;
  cases_per_plan : int;  (** Soak cases run while a plan is armed. *)
  ops_per_case : int;
  min_injected : int;  (** Floor on total fault firings for a pass. *)
  seed : int64;
  jobs : int;
}

val default_options : Plan.direction -> options
(** Substrate: all six devices, 12 plans/combo, 3 cases/plan, 6
    ops/case, >= 1 injection.  Hostile: sdhci + the virtio ring, 36
    plans/combo, 6 cases/plan, 10 ops/case, >= 5000 injections.  Both:
    seed 1, jobs 1. *)

type combo_report = {
  device : string;
  mode : Sedspec.Checker.mode;
  engine : Sedspec.Checker.engine;
  injected : int;
      (** Fault firings (corrupted reads and responses, walk and guard
          hooks, spec plans). *)
  contained : int;
      (** Exceptions converted to [Internal_error] anomalies by the
          checker or the validator. *)
  escaped : int;  (** Exceptions that crossed a bulkhead — must be 0. *)
  fail_open : int;
      (** Fail-closed [Walk_raise] ([Guard_raise]) plans whose fault
          fired yet produced neither a contained checker (validator)
          anomaly nor an escape — must be 0. *)
  guard_anomalies : int;
      (** Validator anomalies fed to the remedy (0 for substrate). *)
  halts : int;  (** Ticks that found the machine halted (degraded, closed). *)
  warns : int;  (** Warnings recorded (degraded, open). *)
  rollbacks : int;
  breaker_trips : int;
  heals : int;  (** Shadow resyncs by [Checker.heal] and the validator. *)
  spec_detected : int;  (** Corrupted spec loads rejected with [Error]. *)
  spec_benign : int;  (** Corruption beyond the covered bytes: identical spec. *)
  spec_silent : int;  (** Loads that returned a different spec — must be 0. *)
}

type report = { options : options; combos : combo_report list }

val run : options -> report

val passed : report -> bool
(** No escaped exception, no silent fail-open, no silently corrupted
    spec load, and at least [min_injected] fault firings. *)

val totals : report -> combo_report
(** Column sums (the [device]/[mode]/[engine] fields are meaningless). *)

val report_to_json : report -> Sedspec_util.Json.t
(** Deterministic rendering: no timestamps, no wall-clock, field order
    fixed — byte-identical across runs and [jobs] values.  Both
    directions share one schema: the same option keys and the same 13
    counters, in one order, in every combo and in [totals]. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Fleet bulkhead isolation}

    Inject machine-site faults ({!Plan.fleet_site}) into a deterministic
    subset of a {!Fleet.Supervisor} fleet and prove the bulkheads hold:
    every {e clean} VM's report — verdict stream, anomaly counts,
    coverage — must be byte-identical to a fault-free baseline run, and
    the faulted run itself must be bit-identical across [jobs]. *)

type fleet_options = {
  fl_vms : int;
  fl_faulty : int;  (** Faulty members, spread evenly over the fleet. *)
  fl_ticks : int;
  fl_seed : int64;
  fl_jobs : int;
  fl_devices : string list;
}

type fleet_report = {
  fl_options : fleet_options;
  fl_faulty_set : int list;  (** VM indices that carried a fault. *)
  fl_sites : (int * string) list;  (** (vm, armed fault site). *)
  fl_fired : int;  (** Total fault firings — must be > 0. *)
  fl_clean_divergent : int list;
      (** Clean VMs whose full report differs from the baseline run —
          must be empty (zero cross-bulkhead interference). *)
  fl_jobs_divergence : bool;
      (** Faulted run at [jobs] vs [jobs = 1] produced different JSON —
          must be [false]. *)
  fl_baseline : Fleet.Supervisor.report;
  fl_faulted : Fleet.Supervisor.report;
}

val isolation : Plan.direction -> fleet_options -> fleet_report
(** Three fleet runs (clean baseline, faulted, faulted serial when
    [fl_jobs <> 1]) under identical options and seed; faults are armed
    through {!Fleet.Supervisor.run}'s [arm] seam on the faulty subset
    only, with sites drawn from a stream keyed by (seed, vm).  In the
    hostile direction every VM runs with the guard enabled and the
    faulty subset carries a hostile device model: it must trip its own
    bulkhead without perturbing one byte of any clean neighbour's
    report.  Raises [Invalid_argument] unless
    [1 <= fl_faulty <= fl_vms]. *)

val fleet_passed : fleet_report -> bool
(** Faults fired, no clean-VM divergence, no jobs divergence. *)

val fleet_report_to_json : fleet_report -> Sedspec_util.Json.t
val pp_fleet_report : Format.formatter -> fleet_report -> unit
