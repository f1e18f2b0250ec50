(* Memoised spec builds, shared by every harness.

   The cache is domain-safe: lookups and inserts are mutex-guarded, and
   builds are single-flight — the first caller for a (device, version)
   key inserts a [Building] marker and builds outside the lock; any
   concurrent caller for the same key blocks on the condition variable
   until the build lands, so a spec is never built twice.  A build that
   raises clears its marker and wakes the waiters, one of which retries
   the build. *)

let training_cases = ref 24

type slot = Building | Ready of Sedspec.Pipeline.built

let cache : (string * string, slot) Hashtbl.t = Hashtbl.create 8
let lock = Mutex.create ()
let landed = Condition.create ()

(* Build-fault seam: runs at the top of every single-flight build with
   the device name and may raise, simulating a transient build failure.
   The failing build's [Building] marker is evicted before the exception
   reaches the caller, so waiters (and retrying callers, e.g. the fleet's
   seeded backoff) observe either [Ready] or an empty slot — never a
   stuck marker.  An atomic so a test arming it from the main domain is
   seen by pool domains without racing the cache mutex. *)
let build_fault : (string -> unit) option Atomic.t = Atomic.make None
let set_build_fault hook = Atomic.set build_fault hook

(* Successful single-flight builds since process start.  With the
   arena/cursor split this counts compiled-arena constructions too (one
   per build): the fleet asserts its delta stays at one per
   (device, version) key no matter how many VMs or domains ask. *)
let build_count = Atomic.make 0
let builds () = Atomic.get build_count

let single_flight key build =
  let claim () =
    let rec wait () =
      match Hashtbl.find_opt cache key with
      | Some (Ready b) -> `Hit b
      | Some Building ->
        Condition.wait landed lock;
        wait ()
      | None ->
        Hashtbl.replace cache key Building;
        `Build
    in
    Mutex.lock lock;
    let r = wait () in
    Mutex.unlock lock;
    r
  in
  match claim () with
  | `Hit b -> b
  | `Build -> (
    match build () with
    | b ->
      Atomic.incr build_count;
      Mutex.lock lock;
      Hashtbl.replace cache key (Ready b);
      Condition.broadcast landed;
      Mutex.unlock lock;
      b
    | exception e ->
      Mutex.lock lock;
      Hashtbl.remove cache key;
      Condition.broadcast landed;
      Mutex.unlock lock;
      raise e)

let built (module W : Workload.Samples.DEVICE_WORKLOAD) version =
  let key = (W.device_name, Devices.Qemu_version.to_string version) in
  single_flight key (fun () ->
      (match Atomic.get build_fault with
      | Some f -> f W.device_name
      | None -> ());
      let m = W.make_machine version in
      Sedspec.Pipeline.build m ~device:W.device_name
        (W.trainer ~cases:!training_cases))

(* Candidate key: a fresh training pass at a different corpus size — the
   evolution ladder's retrained-on-recent-traffic candidate.  The spec is
   stamped one revision past the cached base so the rollout can order and
   pin generations.  Reading that base may itself trigger (or wait on)
   the base build; neither single-flight holds the lock while building,
   so the nesting cannot deadlock. *)
let built_retrained (module W : Workload.Samples.DEVICE_WORKLOAD) version
    ~cases =
  if cases < 1 then invalid_arg "Spec_cache.built_retrained: cases must be >= 1";
  let key =
    ( W.device_name,
      Printf.sprintf "%s+retrain:%d" (Devices.Qemu_version.to_string version)
        cases )
  in
  single_flight key (fun () ->
      (match Atomic.get build_fault with
      | Some f -> f W.device_name
      | None -> ());
      let base = built (module W) version in
      let m = W.make_machine version in
      let b =
        Sedspec.Pipeline.build m ~device:W.device_name (W.trainer ~cases)
      in
      Sedspec.Es_cfg.set_version b.Sedspec.Pipeline.spec
        ~revision:(Sedspec.Es_cfg.revision base.Sedspec.Pipeline.spec + 1)
        ~provenance:(Sedspec.Es_cfg.Retrained cases);
      b)

let fresh_machine ?vmexit_cost (module W : Workload.Samples.DEVICE_WORKLOAD)
    version =
  W.make_machine ?vmexit_cost version

let fresh_protected_machine ?config ?vmexit_cost
    (module W : Workload.Samples.DEVICE_WORKLOAD) version =
  let b = built (module W) version in
  let m = W.make_machine ?vmexit_cost version in
  let checker = Sedspec.Pipeline.protect ?config m ~device:W.device_name b in
  (m, checker)

(* Response-direction profiles for the guest-side validator, under the
   same single-flight discipline but in their own table and counter: the
   fleet asserts exactly one {!builds} delta per (device, version) spec
   key, and a guard profile is not a spec build. *)
type gslot = G_building | G_ready of Guard.Resp.profile

let gcache : (string * string, gslot) Hashtbl.t = Hashtbl.create 8
let guard_build_count = Atomic.make 0
let guard_builds () = Atomic.get guard_build_count

(* Fail-closed substitutions: a (device, version) pair whose guard
   training raised gets {!Guard.Resp.fail_closed} instead of no guard at
   all — counted separately so harnesses can assert the substitution
   happened (or didn't). *)
let guard_fail_closed_count = Atomic.make 0
let guard_fail_closed () = Atomic.get guard_fail_closed_count

let guard_profile (module W : Workload.Samples.DEVICE_WORKLOAD) version =
  let key = (W.device_name, Devices.Qemu_version.to_string version) in
  let claim () =
    let rec wait () =
      match Hashtbl.find_opt gcache key with
      | Some (G_ready p) -> `Hit p
      | Some G_building ->
        Condition.wait landed lock;
        wait ()
      | None ->
        Hashtbl.replace gcache key G_building;
        `Build
    in
    Mutex.lock lock;
    let r = wait () in
    Mutex.unlock lock;
    r
  in
  match claim () with
  | `Hit p -> p
  | `Build ->
    (* Fail closed, not open: if the benign corpus cannot be trained for
       this pair, cache the all-deny profile rather than propagating and
       leaving the response channel unguarded.  The substitution is
       cached like a real profile (it is the profile for an untrained
       pair), so waiters observe it too. *)
    let p =
      match
        let m = W.make_machine version in
        Guard.Resp.train m ~device:W.device_name
          (W.trainer ~cases:!training_cases)
      with
      | p ->
        Atomic.incr guard_build_count;
        p
      | exception _ ->
        Atomic.incr guard_fail_closed_count;
        Guard.Resp.fail_closed ~device:W.device_name
    in
    Mutex.lock lock;
    Hashtbl.replace gcache key (G_ready p);
    Condition.broadcast landed;
    Mutex.unlock lock;
    p

(* Eviction must take the derived ("+retrain:N") entries with the
   base: a stale derived spec would otherwise keep serving content
   computed from an evicted — possibly superseded — base build.  Derived
   keys all extend the base version string with a '+' suffix, so one
   prefix scan finds them.  In-flight [Building]/[G_building] markers are
   left alone: the builder holds no stale content and lands (or evicts)
   its own marker. *)
let derived_of ~version candidate =
  let pl = String.length version in
  String.length candidate > pl
  && String.sub candidate 0 pl = version
  && candidate.[pl] = '+'

let evict ~device ~version =
  let doomed_keys table ready acc0 =
    Hashtbl.fold
      (fun ((d, v) as key) slot acc ->
        if d = device && (v = version || derived_of ~version v) && ready slot
        then key :: acc
        else acc)
      table acc0
  in
  Mutex.lock lock;
  let doomed =
    doomed_keys cache (function Ready _ -> true | Building -> false) []
  in
  List.iter (Hashtbl.remove cache) doomed;
  let gdoomed =
    doomed_keys gcache (function G_ready _ -> true | G_building -> false) []
  in
  List.iter (Hashtbl.remove gcache) gdoomed;
  Mutex.unlock lock;
  List.length doomed + List.length gdoomed
