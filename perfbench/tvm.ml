(* The traced driver: a [Fleet.Vm] rebuilt from the same public calls, in
   the same order, with a span around each call into a layer.

   [create] mirrors [Fleet.Vm.create] for the [Trained] spec source and
   [tick] mirrors [Fleet.Vm.tick]: same PRNG splits, same checker,
   shadow, validator and remedy wiring, same verdict-stream lines.  The
   seams are timed from outside by wrapping interposers
   ([Vmm.Machine.interposer_of] / [set_interposer]):

   - the enforced checker's interposer is wrapped first ([Checker_*]);
   - with a shadow candidate, the lockstep wrapper is itself a span
     ([Shadow_*]: candidate walk plus scoring) around the checker span;
   - the validator then chains in front of that stack, and a last wrapper
     ([Guard_*]) goes outside it, so guard self time is outer minus inner;
   - the gap between the outermost [before] returning and its [after]
     being called is the device interpretation ([Interp]).

   The traced run compares each VM's counts and verdict stream with the
   [Fleet.Vm.report] of an untraced run of the same seeds, so the
   per-layer numbers come from the program the end-to-end run
   measures. *)

module Checker = Sedspec.Checker
module Remedy = Sedspec.Remedy
module Machine = Vmm.Machine
module Governor = Fleet.Governor
module Prng = Sedspec_util.Prng
module W = Workload.Samples
module T = Trace

type shadow = {
  s_checker : Checker.t;
  mutable s_agree : int;
  mutable s_stricter : int;
  mutable s_looser : int;
  mutable s_tick_agree : int;
  mutable s_tick_stricter : int;
  mutable s_tick_looser : int;
  s_sites : (string, int * int * int) Hashtbl.t;  (** Keyed by handler. *)
}

type t = {
  opts : Fleet.Vm.options;
  buf : T.buf;
  workload : (module W.DEVICE_WORKLOAD);
  rng : Prng.t;
  gov : Governor.t;
  machine : Machine.t;
  checker : Checker.t;
  remedy : Remedy.t;
  coverage : Checker.coverage;
  validator : Guard.Validator.t option;
  shadow : shadow option;
  dispatches : int ref;  (** Outermost [before] calls. *)
  mutable remedy_major_words : float;
  mutable checkpoint_ns : float list;  (** [Remedy.tick] on a running VM. *)
  mutable rollback_ns : float list;  (** [Remedy.tick] that rolled back. *)
  mutable ticks : int;
  mutable crashes : int;
  mutable halt_ticks : int;
  mutable anoms : int array;  (** param, indirect, cond, internal. *)
  mutable stream_rev : string list;
}

let rank = function Machine.Allow -> 0 | Machine.Warn _ -> 1 | Machine.Halt _ -> 2

(* Wrap an interposer in a pair of spans. *)
let wrap buf kb ka (ip : Machine.interposer) : Machine.interposer =
  {
    Machine.before =
      (fun req ->
        let i = T.enter buf kb in
        let v = ip.Machine.before req in
        T.leave buf i;
        v);
    after =
      (fun req outcome ->
        let i = T.enter buf ka in
        let v = ip.Machine.after req outcome in
        T.leave buf i;
        v);
  }

(* The outermost wrapper also counts dispatches and brackets the device
   interpretation: an [Interp] span opens when [before] lets the request
   through and closes when the machine calls [after]. *)
let wrap_outer dispatches buf kb ka (ip : Machine.interposer) :
    Machine.interposer =
  let run = ref (-1) in
  {
    Machine.before =
      (fun req ->
        incr dispatches;
        let i = T.enter buf kb in
        let v = ip.Machine.before req in
        T.leave buf i;
        (match v with
        | Machine.Halt _ -> ()
        | Machine.Allow | Machine.Warn _ -> run := T.enter buf T.Interp);
        v);
    after =
      (fun req outcome ->
        if !run >= 0 then begin
          T.leave buf !run;
          run := -1
        end;
        let i = T.enter buf ka in
        let v = ip.Machine.after req outcome in
        T.leave buf i;
        v);
  }

let traced_sync buf f bref vals =
  let i = T.enter buf T.Checker_sync in
  f bref vals;
  T.leave buf i

(* Shadow sync wiring, as [Fleet.Vm.create] installs it: the union of
   both specs' sync points, each checker receiving the locals it asked
   for. *)
let wire_sync buf interp ~base_spec ~cand_spec checker s_checker =
  let to_tbl spec =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (bref, locals) -> Hashtbl.replace tbl bref locals)
      (Sedspec.Es_cfg.sync_points spec);
    tbl
  in
  let base_sp = to_tbl base_spec and cand_sp = to_tbl cand_spec in
  let union =
    let tbl = Hashtbl.create 16 in
    let add (bref, locals) =
      let prev = Option.value (Hashtbl.find_opt tbl bref) ~default:[] in
      Hashtbl.replace tbl bref (List.sort_uniq compare (prev @ locals))
    in
    List.iter add (Sedspec.Es_cfg.sync_points base_spec);
    List.iter add (Sedspec.Es_cfg.sync_points cand_spec);
    List.sort compare (Hashtbl.fold (fun b l acc -> (b, l) :: acc) tbl [])
  in
  let plan tbl =
    let plans = Hashtbl.create 16 in
    List.iter
      (fun (bref, ulocals) ->
        match Hashtbl.find_opt tbl bref with
        | None -> ()
        | Some locals ->
          let locals = List.sort_uniq compare locals in
          Hashtbl.replace plans bref
            (if locals = ulocals then `Full else `Subset locals))
      union;
    plans
  in
  let deliver plans target =
    if List.for_all (fun (b, _) -> Hashtbl.find_opt plans b = Some `Full) union
    then Checker.record_sync target
    else fun bref vals ->
      match Hashtbl.find_opt plans bref with
      | None -> ()
      | Some `Full -> Checker.record_sync target bref vals
      | Some (`Subset locals) ->
        Checker.record_sync target bref
          (List.filter (fun (n, _) -> List.mem n locals) vals)
  in
  let deliver_base = deliver (plan base_sp) checker
  and deliver_cand = deliver (plan cand_sp) s_checker in
  Interp.set_sync_points interp union
    ~on_sync:
      (traced_sync buf (fun bref vals ->
           deliver_base bref vals;
           deliver_cand bref vals))

let create ~seed (opts : Fleet.Vm.options) =
  let buf = T.create_buf () in
  let ci = T.enter buf T.Vm_create in
  let root = Prng.create seed in
  let rng = Prng.split root in
  let _backoff_seed : int64 = Prng.next root in
  let gov = Governor.create ~config:opts.Fleet.Vm.governor () in
  let base_config =
    Governor.checker_config (Governor.state gov) ~base:Checker.default_config
  in
  let w = W.find opts.Fleet.Vm.device in
  let module D = (val w : W.DEVICE_WORKLOAD) in
  let machine = T.span buf T.Machine_create (fun () -> D.make_machine D.paper_version) in
  let acquire f = T.span buf T.Spec_acquire f in
  let built = acquire (fun () -> Metrics.Spec_cache.built w D.paper_version) in
  let checker =
    Sedspec.Pipeline.protect ~config:base_config machine ~device:D.device_name
      built
  in
  Checker.set_deadline checker opts.Fleet.Vm.deadline;
  let coverage = Checker.coverage_create () in
  Checker.set_coverage checker (Some coverage);
  let ip_of () = Option.get (Machine.interposer_of machine D.device_name) in
  let dispatches = ref 0 in
  let guard = opts.Fleet.Vm.guard and shadowed = opts.Fleet.Vm.shadow <> None in
  let layer ~outermost kb ka ip =
    if outermost then wrap_outer dispatches buf kb ka ip else wrap buf kb ka ip
  in
  let enforced =
    layer ~outermost:((not guard) && not shadowed) T.Checker_before
      T.Checker_after (ip_of ())
  in
  let shadow =
    match opts.Fleet.Vm.shadow with
    | None ->
      Machine.set_interposer machine D.device_name enforced;
      (* Re-plant the sync instrumentation [Checker.attach] installed,
         with the same points and callback, inside a span. *)
      Interp.set_sync_points
        (Machine.interp_of machine D.device_name)
        (Sedspec.Es_cfg.sync_points built.Sedspec.Pipeline.spec)
        ~on_sync:(traced_sync buf (Checker.record_sync checker));
      None
    | Some fetch ->
      let cand = acquire fetch in
      let interp = Machine.interp_of machine D.device_name in
      let s_checker =
        Checker.create ~config:(Checker.config checker)
          ~compiled:cand.Sedspec.Pipeline.arena ~spec:cand.Sedspec.Pipeline.spec
          ~device_arena:(Interp.arena interp)
          ~guest:(Vmm.Guest_mem.access (Machine.ram machine))
          ()
      in
      Checker.set_deadline s_checker opts.Fleet.Vm.deadline;
      let sh =
        { s_checker; s_agree = 0; s_stricter = 0; s_looser = 0;
          s_tick_agree = 0; s_tick_stricter = 0; s_tick_looser = 0;
          s_sites = Hashtbl.create 8 }
      in
      wire_sync buf interp ~base_spec:built.Sedspec.Pipeline.spec
        ~cand_spec:cand.Sedspec.Pipeline.spec checker s_checker;
      let sip = Checker.interposer s_checker in
      let score (req : Machine.request) cand_v enf_v =
        let a, st, l =
          match compare (rank cand_v) (rank enf_v) with
          | 0 -> (1, 0, 0)
          | n when n > 0 -> (0, 1, 0)
          | _ -> (0, 0, 1)
        in
        sh.s_agree <- sh.s_agree + a;
        sh.s_stricter <- sh.s_stricter + st;
        sh.s_looser <- sh.s_looser + l;
        sh.s_tick_agree <- sh.s_tick_agree + a;
        sh.s_tick_stricter <- sh.s_tick_stricter + st;
        sh.s_tick_looser <- sh.s_tick_looser + l;
        let pa, ps, pl =
          Option.value
            (Hashtbl.find_opt sh.s_sites req.Machine.handler)
            ~default:(0, 0, 0)
        in
        Hashtbl.replace sh.s_sites req.Machine.handler (pa + a, ps + st, pl + l)
      in
      let lockstep =
        {
          Machine.before =
            (fun req ->
              let cand_v = sip.Machine.before req in
              let enf_v = enforced.Machine.before req in
              score req cand_v enf_v;
              enf_v);
          after =
            (fun req outcome ->
              let cand_v = sip.Machine.after req outcome in
              let enf_v = enforced.Machine.after req outcome in
              score req cand_v enf_v;
              enf_v);
        }
      in
      Machine.set_interposer machine D.device_name
        (layer ~outermost:(not guard) T.Shadow_before T.Shadow_after lockstep);
      Some sh
  in
  let validator =
    if guard then begin
      let v =
        Guard.Validator.attach machine ~device:D.device_name
          ~profile:(acquire (fun () -> Metrics.Spec_cache.guard_profile w D.paper_version))
      in
      Machine.set_interposer machine D.device_name
        (wrap_outer dispatches buf T.Guard_before T.Guard_after (ip_of ()));
      let interp = Machine.interp_of machine D.device_name in
      let hooks = Interp.hooks interp in
      Interp.set_hooks interp
        {
          hooks with
          Interp.on_response =
            (fun ev ->
              let i = T.enter buf T.Guard_response in
              hooks.Interp.on_response ev;
              T.leave buf i);
        };
      Some v
    end
    else None
  in
  let aux_drain =
    match validator with
    | None -> fun () -> []
    | Some v -> fun () -> Guard.Validator.drain_as_checker_anomalies v
  in
  let remedy =
    Remedy.create ~aux_drain ?breaker:opts.Fleet.Vm.breaker machine
      ~device:D.device_name checker
  in
  T.leave buf ci;
  {
    opts; buf; workload = w; rng; gov; machine; checker; remedy; coverage;
    validator; shadow; dispatches; remedy_major_words = 0.;
    checkpoint_ns = []; rollback_ns = []; ticks = 0; crashes = 0;
    halt_ticks = 0; anoms = Array.make 4 0; stream_rev = [];
  }

let major_words () =
  let _, _, mj = Gc.counters () in
  mj

let tick t =
  t.ticks <- t.ticks + 1;
  t.buf.T.cur_tick <- t.ticks;
  let ti = T.enter t.buf T.Tick in
  let module D = (val t.workload : W.DEVICE_WORKLOAD) in
  (match t.shadow with
  | Some sh ->
    sh.s_tick_agree <- 0;
    sh.s_tick_stricter <- 0;
    sh.s_tick_looser <- 0
  | None -> ());
  let crash = ref 0 in
  (try
     T.span t.buf T.Soak (fun () ->
         D.soak_case ~mode:W.Sequential ~rng:t.rng
           ~rare_prob:t.opts.Fleet.Vm.rare_prob
           ~ops:t.opts.Fleet.Vm.ops_per_tick t.machine)
   with _ ->
     incr crash;
     t.crashes <- t.crashes + 1);
  let warns = List.length (Machine.warnings t.machine) in
  Machine.clear_warnings t.machine;
  let p = ref 0 and i = ref 0 and c = ref 0 and x = ref 0 in
  List.iter
    (fun (a : Checker.anomaly) ->
      match a.Checker.strategy with
      | Checker.Parameter_check -> incr p
      | Checker.Indirect_jump_check -> incr i
      | Checker.Conditional_jump_check -> incr c
      | Checker.Internal_error -> incr x)
    (Checker.anomalies t.checker);
  t.anoms.(0) <- t.anoms.(0) + !p;
  t.anoms.(1) <- t.anoms.(1) + !i;
  t.anoms.(2) <- t.anoms.(2) + !c;
  t.anoms.(3) <- t.anoms.(3) + !x;
  let gpend =
    match t.validator with
    | None -> 0
    | Some v -> List.length (Guard.Validator.anomalies v)
  in
  let burn = !i + !c + !x + !crash + gpend in
  T.span t.buf T.Governor (fun () ->
      match Governor.observe t.gov ~burn with
      | Governor.Steady -> ()
      | Governor.Degraded (_, s) | Governor.Restored (_, s) -> (
        let cfg = Governor.checker_config s ~base:(Checker.config t.checker) in
        Checker.set_config t.checker cfg;
        match t.shadow with
        | Some sh -> Checker.set_config sh.s_checker cfg
        | None -> ()));
  let running = not (Machine.halted t.machine) in
  let rb0 = Remedy.rollbacks t.remedy in
  let mj0 = major_words () in
  let ri = T.enter t.buf T.Remedy in
  let _events = Remedy.tick t.remedy in
  T.leave t.buf ri;
  t.remedy_major_words <- t.remedy_major_words +. (major_words () -. mj0);
  let d = Float.Array.get t.buf.T.t1 ri -. Float.Array.get t.buf.T.t0 ri in
  if running then t.checkpoint_ns <- d :: t.checkpoint_ns
  else if Remedy.rollbacks t.remedy > rb0 then t.rollback_ns <- d :: t.rollback_ns;
  (match t.shadow with
  | Some sh -> ignore (Checker.drain_anomalies sh.s_checker : Checker.anomaly list)
  | None -> ());
  let halted = Machine.halted t.machine in
  if halted then t.halt_ticks <- t.halt_ticks + 1;
  let line =
    Printf.sprintf
      "t%04d %s burn=%d halted=%b warns=%d p=%d i=%d c=%d x=%d crash=%d rb=%d \
       cov=%d/%d"
      t.ticks
      (Governor.state_to_string (Governor.state t.gov))
      (Governor.burn_in_window t.gov)
      halted warns !p !i !c !x !crash
      (Remedy.rollbacks t.remedy)
      (Checker.coverage_node_count t.coverage)
      (Checker.coverage_edge_count t.coverage)
  in
  let line =
    match t.shadow with
    | None -> line
    | Some sh ->
      Printf.sprintf "%s sh=%d/%d/%d" line sh.s_tick_agree sh.s_tick_stricter
        sh.s_tick_looser
  in
  t.stream_rev <- line :: t.stream_rev;
  T.leave t.buf ti
