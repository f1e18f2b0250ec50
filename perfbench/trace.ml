(* In-memory span recorder for the traced run.

   One [buf] per VM: every VM's lifecycle runs on a single Runner domain,
   so a buffer is never shared.  A span is (kind, start, end, parent,
   tick) plus the domain's minor-heap word counter at both ends; columns
   live in unboxed float/int arrays that double when full, so recording a
   span allocates nothing on the minor heap.  Self time and self
   allocation are computed from the spans after the run. *)

external now_ns : unit -> (int64[@unboxed])
  = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

let now () = Int64.to_float (now_ns ())

external thread_cpu_ns : unit -> (int64[@unboxed])
  = "perfbench_thread_cpu_ns_byte" "perfbench_thread_cpu_ns"
[@@noalloc]

let cpu_now () = Int64.to_float (thread_cpu_ns ())

type kind =
  | Vm_create
  | Machine_create
  | Spec_acquire  (** Spec cache, guard profile, shadow candidate. *)
  | Tick
  | Soak
  | Guard_before  (** Outer wrapper: validator + everything inside it. *)
  | Guard_after
  | Guard_response  (** The validator's response hook, inside [Interp]. *)
  | Checker_before  (** Enforced checker's pre-walk. *)
  | Checker_after  (** Enforced checker's post-seam check. *)
  | Checker_sync  (** Sync-point recording, inside [Interp]. *)
  | Shadow_before  (** Lockstep wrapper: candidate walk + scoring. *)
  | Shadow_after
  | Interp  (** Gap between the outermost [before] and [after]. *)
  | Governor
  | Remedy

let kinds =
  [| Vm_create; Machine_create; Spec_acquire; Tick; Soak; Guard_before; Guard_after;
     Guard_response; Checker_before; Checker_after; Checker_sync;
     Shadow_before; Shadow_after; Interp; Governor; Remedy |]

let n_kinds = Array.length kinds

let kind_index k =
  let rec find i = if kinds.(i) = k then i else find (i + 1) in
  find 0

let kind_name = function
  | Vm_create -> "vm.create"
  | Machine_create -> "vmm.machine_create"
  | Spec_acquire -> "spec.acquire"
  | Tick -> "vm.tick"
  | Soak -> "workload.soak"
  | Guard_before -> "guard.before"
  | Guard_after -> "guard.after"
  | Guard_response -> "guard.response"
  | Checker_before -> "checker.before"
  | Checker_after -> "checker.after"
  | Checker_sync -> "checker.sync"
  | Shadow_before -> "shadow.before"
  | Shadow_after -> "shadow.after"
  | Interp -> "interp.run"
  | Governor -> "governor.observe"
  | Remedy -> "remedy.tick"

type buf = {
  mutable n : int;
  mutable kind : int array;
  mutable parent : int array;
  mutable tick : int array;
  mutable t0 : Float.Array.t;
  mutable t1 : Float.Array.t;
  mutable w0 : Float.Array.t;  (** Minor words at start. *)
  mutable w1 : Float.Array.t;
  mutable open_ : int;  (** Innermost open span, -1 at top level. *)
  mutable cur_tick : int;
}

let create_buf () =
  let cap = 1024 in
  {
    n = 0;
    kind = Array.make cap 0;
    parent = Array.make cap (-1);
    tick = Array.make cap 0;
    t0 = Float.Array.make cap 0.;
    t1 = Float.Array.make cap 0.;
    w0 = Float.Array.make cap 0.;
    w1 = Float.Array.make cap 0.;
    open_ = -1;
    cur_tick = 0;
  }

let grow b =
  let cap = 2 * Array.length b.kind in
  let ints a d =
    let a' = Array.make cap d in
    Array.blit a 0 a' 0 b.n;
    a'
  and floats a =
    let a' = Float.Array.make cap 0. in
    Float.Array.blit a 0 a' 0 b.n;
    a'
  in
  b.kind <- ints b.kind 0;
  b.parent <- ints b.parent (-1);
  b.tick <- ints b.tick 0;
  b.t0 <- floats b.t0;
  b.t1 <- floats b.t1;
  b.w0 <- floats b.w0;
  b.w1 <- floats b.w1

let alloc b k parent =
  if b.n = Array.length b.kind then grow b;
  let i = b.n in
  b.n <- i + 1;
  b.kind.(i) <- kind_index k;
  b.parent.(i) <- parent;
  b.tick.(i) <- b.cur_tick;
  i

(* Open a span under the innermost open one; returns its index.  The
   clock and counter reads go straight into the unboxed columns. *)
let enter b k =
  let i = alloc b k b.open_ in
  b.open_ <- i;
  Float.Array.set b.w0 i (Gc.minor_words ());
  Float.Array.set b.t0 i (now ());
  i

let leave b i =
  Float.Array.set b.t1 i (now ());
  Float.Array.set b.w1 i (Gc.minor_words ());
  b.open_ <- b.parent.(i)

let span b k f =
  let i = enter b k in
  match f () with
  | v ->
    leave b i;
    v
  | exception e ->
    leave b i;
    raise e

(* Per-kind totals over a set of buffers: count, duration, self time
   (duration minus the children's durations) and self minor words. *)
type totals = {
  count : int array;
  dur_ns : float array;
  self_ns : float array;
  self_words : float array;
}

let totals bufs =
  let count = Array.make n_kinds 0
  and dur_ns = Array.make n_kinds 0.
  and self_ns = Array.make n_kinds 0.
  and self_words = Array.make n_kinds 0. in
  List.iter
    (fun b ->
      let child_ns = Array.make b.n 0. and child_w = Array.make b.n 0. in
      for i = 0 to b.n - 1 do
        let p = b.parent.(i) in
        if p >= 0 then begin
          child_ns.(p) <- child_ns.(p) +. Float.Array.get b.t1 i
                          -. Float.Array.get b.t0 i;
          child_w.(p) <- child_w.(p) +. Float.Array.get b.w1 i
                         -. Float.Array.get b.w0 i
        end
      done;
      for i = 0 to b.n - 1 do
        let k = b.kind.(i) in
        let d = Float.Array.get b.t1 i -. Float.Array.get b.t0 i in
        count.(k) <- count.(k) + 1;
        dur_ns.(k) <- dur_ns.(k) +. d;
        self_ns.(k) <- self_ns.(k) +. d -. child_ns.(i);
        self_words.(k) <- self_words.(k)
                          +. (Float.Array.get b.w1 i -. Float.Array.get b.w0 i)
                          -. child_w.(i)
      done)
    bufs;
  { count; dur_ns; self_ns; self_words }

(* One line per span: vm, id, name, parent id, tick, start/end ns
   (relative to [origin]), minor words.  Tick-level spans are written for
   every tick; per-interaction spans only for ticks [<= detail_ticks], which
   keeps the file to a few MB on I/O-dense workloads. *)
let per_interaction = function
  | Guard_before | Guard_after | Guard_response | Checker_before
  | Checker_after | Checker_sync | Shadow_before | Shadow_after | Interp ->
    true
  | Vm_create | Machine_create | Spec_acquire | Tick | Soak | Governor
  | Remedy ->
    false

let write_tsv path ~origin ~detail_ticks bufs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "vm\tid\tname\tparent\ttick\tstart_ns\tend_ns\tminor_words\n";
      List.iteri
        (fun vm b ->
          for i = 0 to b.n - 1 do
            if b.tick.(i) <= detail_ticks || not (per_interaction kinds.(b.kind.(i)))
            then
            Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%.0f\t%.0f\t%.0f\n" vm i
              (kind_name kinds.(b.kind.(i)))
              b.parent.(i) b.tick.(i)
              (Float.Array.get b.t0 i -. origin)
              (Float.Array.get b.t1 i -. origin)
              (Float.Array.get b.w1 i -. Float.Array.get b.w0 i)
          done)
        bufs)
