(* The protected-I/O-path benchmark (see README.md).

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced ([--trace 0]): a few serving processes in a row, each setting
   up cold and serving the workload's fleet on the real [Fleet.Vm] path;
   prints the end-to-end metrics.  Traced ([--trace 1]): serving process
   0 as the reference, then the same seeds through {!Tvm} with a span
   around each layer; prints the per-layer metrics.  Both check the
   outputs and print, as the last line of stdout, one JSON object with
   [correct], [attempted], [failed] and [metrics]; a failed check exits 1.
   Progress, the per-layer ranking and failed checks go to stderr; files
   go to [perfbench/out]. *)

module Vm = Fleet.Vm
module Runner = Sedspec_util.Runner
module W = Workload.Samples
module T = Trace

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- Workloads ---------------------------------------------------------- *)

type workload = {
  name : string;
  devices : string list;  (** Assigned round-robin, as [Supervisor] does. *)
  vms : int;
  ticks : int;
      (** Supervision rounds per serving process; an untraced process
          spreads them evenly over [--seconds]. *)
  vm_opts : string -> Vm.options;
  processes : int;  (** Serving processes per untraced run. *)
  clean : bool;
      (** Benign by construction: must end with no anomaly, error,
          overrun, crash or looser shadow verdict. *)
}

let all_devices = [ "fdc"; "ehci"; "pcnet"; "sdhci"; "scsi"; "virtio" ]

let workload_of d = W.find d

let version_of d =
  let module D = (val workload_of d : W.DEVICE_WORKLOAD) in
  D.paper_version

let retrained_candidate d () =
  let w = workload_of d in
  (Fleet.Rollout.retrained w ~cases:!Metrics.Spec_cache.training_cases)
    .Fleet.Rollout.rc_build (version_of d)

let workloads =
  [
    {
      name = "fleet-steady";
      devices = all_devices;
      vms = 6;
      (* Every clean tick leaves a 16 MiB checkpoint behind that the GC
         lets pile up: 12 ticks add ~1.1 GiB to a 2.4 GiB base per
         process, which is as far as this workload goes on 8 GB. *)
      ticks = 12;
      processes = 3;
      vm_opts =
        (fun device -> { (Vm.default_options ~device) with Vm.rare_prob = 0. });
      clean = true;
    };
    {
      name = "io-burst";
      devices = [ "sdhci"; "scsi" ];
      vms = 4;
      ticks = 14;
      processes = 2;
      vm_opts =
        (fun device ->
          let base = Vm.default_options ~device in
          {
            base with
            Vm.rare_prob = 0.;
            guard = true;
            (* Enough operations that Remedy.tick is under a tenth of
               the traced tick. *)
            ops_per_tick = (if device = "sdhci" then 160 else 1280);
            (* The sdhci half of the fleet walks the rollout ladder's
               retrained candidate in lockstep. *)
            shadow =
              (if device = "sdhci" then Some (retrained_candidate device)
               else None);
          });
      clean = true;
    };
    (* Not in BENCHMARK.json's gated set: which VMs halt when is the point
       of this workload, and it moves its tick percentiles and throughput
       by 27-37% from seed to seed. *)
    {
      name = "fp-rollback";
      devices = all_devices;
      (* Eight ticks: most VMs take their third rare-command anomaly, and
         latch the breaker, around ticks 5-7, so about a third of the
         ticks are on halted VMs and the median tick stays a live one. *)
      vms = 18;
      ticks = 8;
      processes = 2;
      vm_opts = (fun device -> Vm.default_options ~device);
      clean = false;
    };
  ]

let device_of wl i = List.nth wl.devices (i mod List.length wl.devices)
let opts_of wl i = wl.vm_opts (device_of wl i)
let unique l = List.sort_uniq compare l

(* --- Measurement helpers ------------------------------------------------ *)

(* Set-up runs on up to two Runner domains, as the supervisor would; the
   serving loop runs on one, leaving the second core to the host (with
   both busy, run-to-run spreads were ~25% instead of ~8%). *)
let jobs = max 1 (min 2 (Runner.default_jobs ()))

(* Quantile of (device, value) samples with every device weighted
   equally, as the fleet's round-robin assignment does: which VMs happen
   to be halted then shifts no device's share of the distribution. *)
let balanced_quantile samples q =
  let per_device = Hashtbl.create 8 in
  List.iter
    (fun (d, _) ->
      Hashtbl.replace per_device d (1 + Option.value (Hashtbl.find_opt per_device d) ~default:0))
    samples;
  let devices = float (Hashtbl.length per_device) in
  let weighted =
    List.sort compare
      (List.map (fun (d, x) -> (x, 1. /. (devices *. float (Hashtbl.find per_device d)))) samples)
  in
  let rec walk acc = function
    | [] -> nan
    | [ (x, _) ] -> x
    | (x, w) :: rest -> if acc +. w >= q then x else walk (acc +. w) rest
  in
  walk 0. weighted

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let status_kb field =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | l when String.length l > String.length field
                 && String.sub l 0 (String.length field) = field ->
          Scanf.sscanf
            (String.sub l (String.length field) (String.length l - String.length field))
            " %d" Fun.id
        | _ -> go ()
        | exception End_of_file -> 0
      in
      go ())

let mb x = x /. 1048576.

let t_start = Unix.gettimeofday ()

let phase what =
  log "[%6.2f s] %s (rss %d MB, hwm %d MB)" (Unix.gettimeofday () -. t_start) what
    (status_kb "VmRSS:" / 1024) (status_kb "VmHWM:" / 1024)

(* Per-VM seeds exactly as [Fleet.Supervisor.run] derives them. *)
let vm_seeds wl seed =
  Runner.map_seeded ~jobs:1 ~seed (fun ~seed _ -> seed) (List.init wl.vms Fun.id)

(* --- Report comparison -------------------------------------------------- *)

(* The count signature both checks compare: interactions, anomalies per
   strategy, rollbacks, halt ticks, crashes and the verdict stream. *)
type counts = {
  c_interactions : int;
  c_anoms : int * int * int * int;
  c_rollbacks : int;
  c_halt_ticks : int;
  c_crashes : int;
  c_stream : string list;
}

let counts_of_report (r : Vm.report) =
  {
    c_interactions = r.Vm.r_interactions;
    c_anoms =
      (r.Vm.r_anoms_param, r.Vm.r_anoms_indirect, r.Vm.r_anoms_cond,
       r.Vm.r_anoms_internal);
    c_rollbacks = r.Vm.r_rollbacks;
    c_halt_ticks = r.Vm.r_halt_ticks;
    c_crashes = r.Vm.r_crashes;
    c_stream = r.Vm.r_stream;
  }

let counts_of_tvm (t : Tvm.t) =
  {
    c_interactions = (Sedspec.Checker.stats t.Tvm.checker).Sedspec.Checker.interactions;
    c_anoms = (t.Tvm.anoms.(0), t.Tvm.anoms.(1), t.Tvm.anoms.(2), t.Tvm.anoms.(3));
    c_rollbacks = Sedspec.Remedy.rollbacks t.Tvm.remedy;
    c_halt_ticks = t.Tvm.halt_ticks;
    c_crashes = t.Tvm.crashes;
    c_stream = List.rev t.Tvm.stream_rev;
  }

(* Checks accumulate here; any entry makes the run incorrect. *)
let failures = ref []

let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures; log "CHECK FAILED: %s" s) fmt

(* --- The untraced fleet path --------------------------------------------- *)

let create_fleet wl seeds =
  Runner.map ~jobs
    (fun (i, seed) -> Vm.create ~index:i ~seed (opts_of wl i))
    (List.mapi (fun i s -> (i, s)) seeds)

(* Supervision rounds on the calling domain: round [k] ticks every VM
   once, in index order, no earlier than [k * period_ms] after the first
   round (a supervisor on a timer; the sleep is not serving time).  Each
   tick is timed on the serving thread's CPU clock: the host steals a
   variable ~15% of this VM's CPU time, which a wall clock would count as
   tick time.  Returns tick times, whether each tick ended halted, and
   the worst lateness of a round in ms.  No GC call runs in here. *)
let rounds ~period_ms ~ticks ~tick ~halted vms =
  let n = Array.length vms in
  let ns = Float.Array.make (n * ticks) 0. in
  let ended_halted = Array.make (n * ticks) false in
  let late = ref 0. in
  let t0 = T.now () in
  for k = 0 to ticks - 1 do
    let due = t0 +. (float k *. period_ms *. 1e6) in
    let now = T.now () in
    if now < due then Unix.sleepf ((due -. now) /. 1e9)
    else late := Float.max !late ((now -. due) /. 1e6);
    Array.iteri
      (fun i vm ->
        let a = T.cpu_now () in
        tick vm;
        Float.Array.set ns ((k * n) + i) (T.cpu_now () -. a);
        ended_halted.((k * n) + i) <- halted vm)
      vms
  done;
  (ns, ended_halted, !late)

type round = {
  busy_s : float;  (** Sum of the tick times. *)
  late_ms : float;
  served_ns : (string * float) list;
      (** (device, ns) of the ticks that did not end halted: the latency
          samples.  A halted tick is refused service and counts against
          [served_frac] instead. *)
  reports : Vm.report list;
}

let period_ms wl ~seconds = float (max 1 seconds) *. 1000. /. float wl.ticks

let serve wl ~seconds fleet =
  let vms = Array.of_list fleet in
  let n = Array.length vms in
  let ns, halted, late_ms =
    rounds ~period_ms:(period_ms wl ~seconds) ~ticks:wl.ticks ~tick:Vm.tick
      ~halted:(fun vm ->
        match Vm.machine vm with Some m -> Vmm.Machine.halted m | None -> true)
      vms
  in
  {
    busy_s = Float.Array.fold_left ( +. ) 0. ns /. 1e9;
    late_ms;
    served_ns =
      List.filter_map Fun.id
        (List.init (n * wl.ticks) (fun i ->
             if halted.(i) then None
             else Some (device_of wl (i mod n), Float.Array.get ns i)));
    reports = List.map Vm.report fleet;
  }

(* [Fleet.Supervisor]'s physical-sharing audit: every cache-built VM of a
   device walks the same compiled arena. *)
let arenas_shared (reports : Vm.report list) =
  let by_device = Hashtbl.create 8 in
  List.for_all
    (fun (r : Vm.report) ->
      match r.Vm.r_arena with
      | None -> true
      | Some a -> (
        match Hashtbl.find_opt by_device r.Vm.r_device with
        | None ->
          Hashtbl.add by_device r.Vm.r_device a;
          true
        | Some first -> first == a))
    reports

let check_outputs wl (reports : Vm.report list) =
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  let failed_vms = sum (fun r -> if r.Vm.r_status = "ok" then 0 else 1) in
  if failed_vms <> 0 then fail "%d VMs failed to build" failed_vms;
  if not (arenas_shared reports) then fail "compiled arenas not shared";
  if wl.clean then begin
    let z what n = if n <> 0 then fail "%s: %d (expected 0)" what n in
    z "anomalies"
      (sum (fun r ->
           r.Vm.r_anoms_param + r.Vm.r_anoms_indirect + r.Vm.r_anoms_cond
           + r.Vm.r_anoms_internal));
    z "internal errors" (sum (fun r -> r.Vm.r_internal_errors));
    z "deadline overruns" (sum (fun r -> r.Vm.r_deadline_overruns));
    z "crashes" (sum (fun r -> r.Vm.r_crashes));
    z "rollbacks" (sum (fun r -> r.Vm.r_rollbacks));
    z "guard anomalies"
      (sum (fun r -> match r.Vm.r_guard with Some (d, _) -> d | None -> 0));
    z "guard internal errors"
      (sum (fun r -> match r.Vm.r_guard with Some (_, e) -> e | None -> 0));
    z "looser shadow verdicts"
      (sum (fun r ->
           match r.Vm.r_shadow with Some sh -> sh.Vm.sh_looser | None -> 0))
  end

(* Counts must repeat exactly between runs of one seed.  Each run leaves
   its count signature in [perfbench/out], keyed by the workload, seed,
   size and a digest of this executable; a later run of the same key —
   untraced or traced — must reproduce it. *)
let counts_file wl ~seed =
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  Printf.sprintf "perfbench/out/counts-%s-%Ld-%dx%d-%s.txt" wl.name seed wl.vms
    wl.ticks (String.sub exe 0 12)

let render_counts counts =
  String.concat ""
    (List.mapi
       (fun i c ->
         let p, ia, cd, x = c.c_anoms in
         Printf.sprintf "vm %d interactions=%d anomalies=%d,%d,%d,%d rollbacks=%d \
                         halt_ticks=%d crashes=%d\n%s\n"
           i c.c_interactions p ia cd x c.c_rollbacks c.c_halt_ticks c.c_crashes
           (String.concat "\n" c.c_stream))
       counts)

let check_repeat wl ~seed counts =
  let body = render_counts counts in
  let path = counts_file wl ~seed in
  try
    if Sys.file_exists path then begin
      let prev = In_channel.with_open_bin path In_channel.input_all in
      if prev <> body then fail "counts differ from the earlier run recorded in %s" path
      else log "counts repeat the earlier run of this seed (%s)" path
    end
    else begin
      if not (Sys.file_exists "perfbench/out") then Sys.mkdir "perfbench/out" 0o755;
      let tmp = path ^ ".tmp" in
      Out_channel.with_open_bin tmp (fun oc -> output_string oc body);
      Sys.rename tmp path
    end
  with Sys_error e -> log "count record unavailable: %s" e

(* One set-up: cold spec acquisition through the cache plus [Vm.create]
   for the whole fleet on the Runner pool, as [Fleet.Supervisor.run]
   does on its worker domains.  Timed in process CPU seconds (all
   domains): the host steals up to ~40% of this VM's CPU in bursts, which
   tripled wall-clock set-up times from one run to the next. *)
let setup wl seeds =
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let c0 = cpu () in
  let fleet = create_fleet wl seeds in
  (fleet, cpu () -. c0)

(* An untraced run is [wl.processes] serving processes in a row, each
   with its own fleet seed drawn from the run's seed.  Each is cold (its
   own spec cache, its own heap), so each gives a set-up sample and its
   own high-water RSS, and no process carries another's garbage. *)

type served = {
  p_setup_s : float;
  p_busy_s : float;
  p_hwm_mb : float;
  p_mem_per_vm : float;  (** Bytes; only process 0 measures it (-1 elsewhere). *)
  p_attempted : int;
  p_not_served : int;  (** Halted, crashed or failed-VM ticks. *)
  p_failed : int;  (** Crashed or failed-VM ticks. *)
  p_interactions : int;
  p_halt_ticks : int;
  p_rollbacks : int;
  p_tick_ns : (string * float) list;  (** Served ticks, by device. *)
}

let serve_process wl ~seconds ~seed ~index =
  let seeds = vm_seeds wl seed in
  let fleet, setup_s = setup wl seeds in
  Gc.compact ();
  let r = serve wl ~seconds fleet in
  log "process %d: worst round start %.1f ms late" index r.late_ms;
  let hwm_mb = float (status_kb "VmHWM:") /. 1024. in
  check_outputs wl r.reports;
  check_repeat wl ~seed (List.map counts_of_report r.reports);
  (* Live bytes per VM: words reachable from a second warm fleet but not
     from the first (shared specs and arenas count with the first).
     Measured after the high-water mark is read. *)
  let mem_per_vm =
    if index <> 0 then -1.
    else begin
      let second = create_fleet wl seeds in
      let words x = float (Obj.reachable_words (Obj.repr x)) in
      (words (fleet, second) -. words fleet)
      *. float (Sys.word_size / 8) /. float wl.vms
    end
  in
  let sum f = List.fold_left (fun a x -> a + f x) 0 r.reports in
  let failed_vm_ticks =
    sum (fun (r : Vm.report) -> if r.Vm.r_status = "ok" then 0 else wl.ticks)
  in
  let crashes = sum (fun r -> r.Vm.r_crashes) in
  let halt_ticks = sum (fun r -> r.Vm.r_halt_ticks) in
  {
    p_setup_s = setup_s;
    p_busy_s = r.busy_s;
    p_hwm_mb = hwm_mb;
    p_mem_per_vm = mem_per_vm;
    p_attempted = wl.vms * wl.ticks;
    p_not_served = halt_ticks + crashes + failed_vm_ticks;
    p_failed = crashes + failed_vm_ticks;
    p_interactions = sum (fun r -> r.Vm.r_interactions);
    p_halt_ticks = halt_ticks;
    p_rollbacks = sum (fun r -> r.Vm.r_rollbacks);
    p_tick_ns = r.served_ns;
  }

(* A serving process reports on two stdout lines: the scalars, then its
   tick samples. *)
let print_served p =
  Printf.printf "%.17g %.17g %.17g %.17g %d %d %d %d %d %d\n%s\n" p.p_setup_s
    p.p_busy_s p.p_hwm_mb p.p_mem_per_vm p.p_attempted p.p_not_served p.p_failed
    p.p_interactions p.p_halt_ticks p.p_rollbacks
    (String.concat " "
       (List.map (fun (d, x) -> Printf.sprintf "%s:%.0f" d x) p.p_tick_ns))

let parse_served out =
  match String.split_on_char '\n' out with
  | scalars :: ticks :: _ ->
    Scanf.sscanf scalars " %f %f %f %f %d %d %d %d %d %d"
      (fun p_setup_s p_busy_s p_hwm_mb p_mem_per_vm p_attempted p_not_served
           p_failed p_interactions p_halt_ticks p_rollbacks ->
        {
          p_setup_s; p_busy_s; p_hwm_mb; p_mem_per_vm; p_attempted;
          p_not_served; p_failed; p_interactions; p_halt_ticks; p_rollbacks;
          p_tick_ns =
            List.filter_map
              (fun tok ->
                match String.split_on_char ':' tok with
                | [ d; x ] -> Option.map (fun x -> (d, x)) (float_of_string_opt x)
                | _ -> None)
              (String.split_on_char ' ' ticks);
        })
  | _ -> failwith "malformed serving-process output"

(* Run this executable with [args]; returns its stdout and whether it
   exited 0.  Its stderr is ours. *)
let run_child args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.append [| Sys.executable_name |] args)
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  (out, snd (Unix.waitpid [] pid) = Unix.WEXITED 0)

let run_process wl ~seconds ~seed ~index =
  let out, ok =
    run_child
      [| "--workload"; wl.name; "--seconds"; string_of_int seconds; "--seed";
         Int64.to_string seed; "--serve-process"; string_of_int index |]
  in
  if ok then Some (parse_served out)
  else begin
    fail "serving process %d (seed %Ld) failed its checks" index seed;
    None
  end

(* The fleet seed of serving process [index]: the [index]-th draw of the
   run's seed stream; process 0 and the traced run share the first. *)
let process_seeds wl seed = vm_seeds { wl with vms = wl.processes } seed

let untraced wl ~seconds ~seed =
  let ps =
    List.concat
      (List.mapi
         (fun index s ->
           let p = run_process wl ~seconds ~seed:s ~index in
           Option.iter
             (fun p ->
               phase
                 (Printf.sprintf
                    "process %d: set-up %.3f s, served %.3f s, hwm %.0f MB, %d \
                     interactions, %d halt ticks, %d rollbacks"
                    index p.p_setup_s p.p_busy_s p.p_hwm_mb p.p_interactions
                    p.p_halt_ticks p.p_rollbacks))
             p;
           Option.to_list p)
         (process_seeds wl seed))
  in
  let sum f = List.fold_left (fun a p -> a + f p) 0 ps in
  let fsum f = List.fold_left (fun a p -> a +. f p) 0. ps in
  let samples = List.concat_map (fun p -> p.p_tick_ns) ps in
  let n = List.length samples in
  log "served tick samples: %d (%d beyond p90)" n
    (n - int_of_float (ceil (0.9 *. float n)));
  let attempted = max 1 (sum (fun p -> p.p_attempted)) in
  let metrics =
    [
      ("ia_per_s", float (sum (fun p -> p.p_interactions)) /. fsum (fun p -> p.p_busy_s), "1/s");
      ("tick_p50_ms", balanced_quantile samples 0.5 /. 1e6, "ms");
      ("tick_p90_ms", balanced_quantile samples 0.9 /. 1e6, "ms");
      ( "served_frac",
        1. -. (float (sum (fun p -> p.p_not_served)) /. float attempted),
        "fraction" );
      ("setup_s", median (List.map (fun p -> p.p_setup_s) ps), "s");
      ("peak_rss_mb", median (List.map (fun p -> p.p_hwm_mb) ps), "MB");
      ( "mem_per_vm_mb",
        mb
          (List.fold_left
             (fun a p -> if p.p_mem_per_vm < 0. then a else p.p_mem_per_vm)
             nan ps),
        "MB" );
    ]
  in
  (attempted, sum (fun p -> p.p_failed), metrics)

(* --- The traced path ------------------------------------------------------ *)

(* Bare soak: the same seeded soak on an unprotected machine (a counting
   pass-through interposer stands in for the checker).  Returns summed
   per-VM soak time and dispatches. *)
let bare_soak wl seeds ~vmexit_cost =
  let per_vm =
    List.map
      (fun (i, seed) ->
        let o = opts_of wl i in
        let module D = (val workload_of o.Vm.device : W.DEVICE_WORKLOAD) in
        let root = Sedspec_util.Prng.create seed in
        let rng = Sedspec_util.Prng.split root in
        let m = D.make_machine ~vmexit_cost D.paper_version in
        let n = ref 0 in
        Vmm.Machine.set_interposer m D.device_name
          {
            Vmm.Machine.before = (fun _ -> incr n; Vmm.Machine.Allow);
            after = (fun _ _ -> Vmm.Machine.Allow);
          };
        let t0 = T.now () in
        for _ = 1 to wl.ticks do
          (try
             D.soak_case ~mode:W.Sequential ~rng ~rare_prob:o.Vm.rare_prob
               ~ops:o.Vm.ops_per_tick m
           with _ -> ());
          Vmm.Machine.resume m
        done;
        (T.now () -. t0, !n))
      (List.mapi (fun i s -> (i, s)) seeds)
  in
  List.fold_left (fun (t, n) (t', n') -> (t +. t', n + n')) (0., 0) per_vm

(* The spec-build phases, timed in a process of their own around the two
   public calls [Metrics.Spec_cache.built] makes ([Pipeline.collect],
   then [Pipeline.construct] on a fresh machine), so the traced process
   acquires its specs through the cache exactly as a serving process
   does.  Prints one "device collect_s construct_s" line per device. *)
let pipeline_process wl =
  List.iter
    (fun d ->
      let module D = (val workload_of d : W.DEVICE_WORKLOAD) in
      let trainer = D.trainer ~cases:!Metrics.Spec_cache.training_cases in
      let m = D.make_machine D.paper_version in
      let t0 = T.now () in
      let p1 = Sedspec.Pipeline.collect m ~device:d trainer in
      let t1 = T.now () in
      ignore (Sedspec.Pipeline.construct m ~device:d p1 trainer : Sedspec.Pipeline.built);
      let t2 = T.now () in
      Printf.printf "%s %.17g %.17g\n%!" d ((t1 -. t0) /. 1e9) ((t2 -. t1) /. 1e9))
    (unique wl.devices)

let run_pipeline_process wl =
  let out, ok = run_child [| "--workload"; wl.name; "--pipeline-process" |] in
  if not ok then fail "pipeline process failed";
  List.filter_map
    (fun line ->
      try Some (Scanf.sscanf line "%s %f %f" (fun d c k -> (d, (c, k))))
      with Scanf.Scan_failure _ | End_of_file -> None)
    (String.split_on_char '\n' out)

(* The traced run's reference is untraced serving process 0 of the same
   seed, run as a child exactly as in an untraced run: it records its
   count signature, and the traced driver must reproduce it. *)
let check_against_record wl ~seed counts =
  let path = counts_file wl ~seed in
  match In_channel.with_open_bin path In_channel.input_all with
  | recorded ->
    let mine = render_counts counts in
    if recorded <> mine then begin
      Out_channel.with_open_bin (path ^ ".traced") (fun oc -> output_string oc mine);
      fail "traced driver does not reproduce Fleet.Vm.report (diff %s %s.traced)"
        path path
    end
  | exception Sys_error e -> fail "no count record to check the traced run: %s" e

let traced wl ~seconds ~seed =
  let seeds = vm_seeds wl seed in
  let reference =
    match run_process wl ~seconds ~seed ~index:0 with
    | Some p -> p
    | None -> exit 1
  in
  phase "reference process served";
  let pipeline = run_pipeline_process wl in
  phase "pipeline process done";
  let tvms =
    Runner.map ~jobs
      (fun (i, seed) -> Tvm.create ~seed (opts_of wl i))
      (List.mapi (fun i s -> (i, s)) seeds)
  in
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let t0 = T.now () in
  let cpu_ns, _, _ =
    rounds ~period_ms:(period_ms wl ~seconds) ~ticks:wl.ticks ~tick:Tvm.tick
      ~halted:(fun tv -> Vmm.Machine.halted tv.Tvm.machine)
      (Array.of_list tvms)
  in
  let gc1 = Gc.quick_stat () in
  phase "traced round served";
  check_against_record wl ~seed (List.map counts_of_tvm tvms);
  let bufs = List.map (fun tv -> tv.Tvm.buf) tvms in
  let tot = T.totals bufs in
  let k_self k = tot.T.self_ns.(T.kind_index k)
  and k_words k = tot.T.self_words.(T.kind_index k)
  and k_count k = tot.T.count.(T.kind_index k)
  and k_dur k = tot.T.dur_ns.(T.kind_index k) in
  let stats = List.map (fun tv -> Sedspec.Checker.stats tv.Tvm.checker) tvms in
  let sum_stats f = List.fold_left (fun a s -> a + f s) 0 stats in
  let ia = sum_stats (fun s -> s.Sedspec.Checker.interactions) in
  let fia = float (max 1 ia) in
  let nticks = List.length tvms * wl.ticks in
  let dispatches = List.fold_left (fun a tv -> a + !(tv.Tvm.dispatches)) 0 tvms in
  let per_ia x = x /. fia in
  let mean l = match l with [] -> 0. | _ -> List.fold_left ( +. ) 0. l /. float (List.length l) in
  let checkpoints = List.concat_map (fun tv -> tv.Tvm.checkpoint_ns) tvms in
  let rollbacks = List.concat_map (fun tv -> tv.Tvm.rollback_ns) tvms in
  let shadow_agree, shadow_total =
    List.fold_left
      (fun (a, n) tv ->
        match tv.Tvm.shadow with
        | Some sh ->
          (a + sh.Tvm.s_agree, n + sh.Tvm.s_agree + sh.Tvm.s_stricter + sh.Tvm.s_looser)
        | None -> (a, n))
      (0, 0) tvms
  in
  let shadow_ia =
    List.fold_left
      (fun a tv ->
        match tv.Tvm.shadow with
        | Some _ -> a + (Sedspec.Checker.stats tv.Tvm.checker).Sedspec.Checker.interactions
        | None -> a)
      0 tvms
  in
  (* Bare baselines and the calibrated exit. *)
  phase "bare soaks";
  let bare0_ns, bare_n = bare_soak wl seeds ~vmexit_cost:0 in
  let bare_exit_ns, _ = bare_soak wl seeds ~vmexit_cost:2000 in
  let bare_ns_per_ia = bare0_ns /. float (max 1 bare_n) in
  let exit_ns = (bare_exit_ns -. bare0_ns) /. float (max 1 bare_n) in
  let prot_ns_per_ia =
    reference.p_busy_s *. 1e9 /. float (max 1 reference.p_interactions)
  in
  let untraced_ia_s = float reference.p_interactions /. reference.p_busy_s in
  let traced_ia_s = float ia /. (Float.Array.fold_left ( +. ) 0. cpu_ns /. 1e9) in
  let tick_total = k_dur T.Tick in
  let guard_ns =
    k_self T.Guard_before +. k_self T.Guard_after +. k_self T.Guard_response
  in
  let layers =
    [
      ("workload.driver (soak self)", k_self T.Soak);
      ("guard", guard_ns);
      ("checker.prewalk", k_self T.Checker_before);
      ("checker.post", k_self T.Checker_after);
      ("checker.sync", k_self T.Checker_sync);
      ("interp", k_self T.Interp);
      ("shadow", k_self T.Shadow_before +. k_self T.Shadow_after);
      ("governor", k_self T.Governor);
      ("remedy", k_self T.Remedy);
      ("vm.tick self", k_self T.Tick);
    ]
  in
  log "per-layer self time, share of %d ticks (%.1f ms):" nticks (tick_total /. 1e6);
  List.iter
    (fun (n, s) -> log "  %-28s %6.2f%%  %10.3f ms" n (100. *. s /. tick_total) (s /. 1e6))
    (List.sort (fun (_, a) (_, b) -> compare b a) layers);
  log "reference ia/s %.0f, traced ia/s %.0f (overhead %.1f%%)" untraced_ia_s traced_ia_s
    (100. *. (1. -. (traced_ia_s /. untraced_ia_s)));
  (try
     if not (Sys.file_exists "perfbench/out") then Sys.mkdir "perfbench/out" 0o755;
     T.write_tsv
       (Printf.sprintf "perfbench/out/spans-%s.tsv" wl.name)
       ~origin:t0 ~detail_ticks:1 bufs
   with Sys_error e -> log "spans not written: %s" e);
  let pipeline_metrics =
    List.concat_map
      (fun d ->
        let c, k = Option.value (List.assoc_opt d pipeline) ~default:(0., 0.) in
        [
          (Printf.sprintf "pipeline.%s.collect_s" d, c, "s");
          (Printf.sprintf "pipeline.%s.construct_s" d, k, "s");
        ])
      all_devices
  in
  let metrics =
    pipeline_metrics
    @ [
        (* Without the spec acquisition inside it: the cold builds are
           the pipeline rows, and [setup_s] already counts them. *)
        ( "vm.create_ms",
          (k_dur T.Vm_create -. k_dur T.Spec_acquire)
          /. float (max 1 (k_count T.Vm_create))
          /. 1e6,
          "ms" );
        ( "vmm.machine_create_ms",
          k_dur T.Machine_create /. float (max 1 (k_count T.Machine_create)) /. 1e6,
          "ms" );
        ("vm.tick_self_us", k_self T.Tick /. float nticks /. 1e3, "us");
        ("vmm.dispatches_per_tick", float dispatches /. float nticks, "count");
        ("workload.driver_us_per_tick", k_self T.Soak /. float nticks /. 1e3, "us");
        ("guard.ns_per_ia", per_ia guard_ns, "ns");
        ("checker.prewalk_ns_per_ia", per_ia (k_self T.Checker_before), "ns");
        ("checker.post_ns_per_ia", per_ia (k_self T.Checker_after), "ns");
        ("checker.sync_ns_per_ia", per_ia (k_self T.Checker_sync), "ns");
        ( "checker.nodes_per_ia",
          per_ia (float (sum_stats (fun s -> s.Sedspec.Checker.nodes_walked))),
          "count" );
        ( "checker.deferred_frac",
          per_ia (float (sum_stats (fun s -> s.Sedspec.Checker.deferred))),
          "fraction" );
        ( "checker.minor_words_per_ia",
          per_ia
            (k_words T.Checker_before +. k_words T.Checker_after
           +. k_words T.Checker_sync),
          "words" );
        ("interp.ns_per_ia", per_ia (k_self T.Interp), "ns");
        ("interp.minor_words_per_ia", per_ia (k_words T.Interp), "words");
        ( "shadow.ns_per_ia",
          (k_self T.Shadow_before +. k_self T.Shadow_after) /. float (max 1 shadow_ia),
          "ns" );
        ( "shadow.agree_frac",
          (if shadow_total = 0 then 0. else float shadow_agree /. float shadow_total),
          "fraction" );
        ("remedy.checkpoint_ms", mean checkpoints /. 1e6, "ms");
        ( "remedy.major_words_per_tick",
          List.fold_left (fun a tv -> a +. tv.Tvm.remedy_major_words) 0. tvms
          /. float nticks,
          "words" );
        ("governor.observe_ns", k_dur T.Governor /. float (max 1 (k_count T.Governor)), "ns");
        ( "gc.major_collections",
          float (gc1.Gc.major_collections - gc0.Gc.major_collections),
          "count" );
        ("gc.heap_peak_mb", mb (float (gc1.Gc.top_heap_words * (Sys.word_size / 8))), "MB");
        ("workload.bare_ns_per_ia", bare_ns_per_ia, "ns");
        ("vmm.exit_ns", exit_ns, "ns");
        ("trace.residual_frac", k_self T.Tick /. tick_total, "fraction");
        ("trace.overhead_frac", 1. -. (traced_ia_s /. untraced_ia_s), "fraction");
        ( "derived.overhead_exit0_frac",
          ((prot_ns_per_ia -. exit_ns) /. bare_ns_per_ia) -. 1.,
          "fraction" );
        ( "derived.overhead_band_frac",
          (prot_ns_per_ia /. (bare_ns_per_ia +. exit_ns)) -. 1.,
          "fraction" );
      ]
  in
  (* The anomaly path's layers: only a workload with anomalies (not in
     BENCHMARK.json's gated set) exercises them. *)
  let anomaly_path =
    if wl.clean then []
    else
      [
        ("remedy.rollback_ms", mean rollbacks /. 1e6, "ms");
        ( "remedy.rollbacks_per_vm",
          float (List.fold_left (fun a tv -> a + Sedspec.Remedy.rollbacks tv.Tvm.remedy) 0 tvms)
          /. float (List.length tvms),
          "count" );
        ( "remedy.breaker_trips",
          float
            (List.length
               (List.filter (fun tv -> Sedspec.Remedy.breaker_tripped tv.Tvm.remedy) tvms)),
          "count" );
        ( "governor.degrades",
          float (List.fold_left (fun a tv -> a + Fleet.Governor.degrades tv.Tvm.gov) 0 tvms),
          "count" );
      ]
  in
  let failed = List.fold_left (fun a tv -> a + tv.Tvm.crashes) 0 tvms in
  (nticks, failed, metrics @ anomaly_path)

(* --- Entry point ------------------------------------------------------------ *)

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let () =
  let workload = ref "" and seed = ref "1" and seconds = ref 4 and trace = ref 0
  and serve_index = ref (-1) and pipeline_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME fleet-steady|io-burst|fp-rollback");
      ("--seed", Arg.Set_string seed, "N workload seed (64-bit)");
      ("--seconds", Arg.Set_int seconds, "S serving time to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--serve-process", Arg.Set_int serve_index, "K (internal) serving process K of a run");
      ("--pipeline-process", Arg.Set pipeline_only, " (internal) time the spec builds");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let seed64 =
    match Int64.of_string_opt !seed with
    | Some s -> s
    | None ->
      prerr_endline ("bad seed: " ^ !seed);
      exit 2
  in
  if !pipeline_only then begin
    pipeline_process wl;
    exit 0
  end;
  if !serve_index >= 0 then begin
    print_served
      (serve_process wl ~seconds:!seconds ~seed:seed64 ~index:!serve_index);
    exit (if !failures = [] then 0 else 1)
  end;
  log "workload %s, seed %s, %d Runner domains, %d training cases" wl.name !seed jobs
    !Metrics.Spec_cache.training_cases;
  let seed = seed64 in
  let attempted, failed, metrics =
    if !trace = 0 then untraced wl ~seconds:!seconds ~seed
    else traced wl ~seconds:!seconds ~seed:(List.hd (process_seeds wl seed))
  in
  let correct = !failures = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
          metrics));
  if not correct then exit 1
