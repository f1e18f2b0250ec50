(** Deterministic fault plans.

    A plan is one seeded, replayable fault at one seam the checker
    depends on but does not control.  Plans come in two directions.

    {b Substrate} (guest->host): the seams under the checker.
    - {b guest memory}: byte reads return corrupted data
      ([Guest_corrupt], a pure address-keyed XOR so the device and both
      walk engines observe the same wrong value) or short data
      ([Guest_short], reads at or above a limit return 0 — a missing
      page);
    - {b persisted spec}: the serialised bytes are bit-flipped or
      truncated before [Persist.of_string];
    - {b the walk itself}: a synthetic exception or latency spike fires
      at the top of the k-th walk, under either engine
      ([Checker.set_fault_hook]).

    {b Hostile} (host->guest): what a hostile device model feeds back to
    the guest — register read-returns, outbound DMA lengths, completion
    stores, IRQ edges — plus a synthetic fault inside the guest-side
    validator itself.

    Plans carry the containment policy the checker runs under, so a
    fixed seed replays the exact campaign. *)

type site =
  | Guest_corrupt of { mask : int64 }
      (** XOR-corrupt a deterministic ~1/8 subset of guest byte reads;
          [mask] keys which addresses and with what value. *)
  | Guest_short of { limit : int64 }
      (** Byte reads at addresses >= [limit] (unsigned) return 0. *)
  | Spec_bit_flip of { flips : int }  (** Flip [flips] random bits. *)
  | Spec_truncate  (** Cut the serialised spec at a random offset. *)
  | Walk_raise of { at_walk : int }
      (** Raise {!Injected} at the top of walk number [at_walk]
          (0-based). *)
  | Walk_delay of { at_walk : int; spin : int }
      (** Burn [spin] iterations at the top of walk number [at_walk]. *)
  | Resp_read_corrupt of { mask : int64 }
      (** XOR-corrupt a deterministic ~1/4 subset of register read-return
          values at the host->guest seam; [mask] keys which values. *)
  | Resp_dma_len of { delta : int }
      (** Add [delta] to every outbound (device->guest) DMA length —
          malformed completions, truncated or inflated. *)
  | Resp_store_corrupt of { mask : int64 }
      (** XOR-corrupt a deterministic ~1/4 subset of completion-store
          values written into guest memory. *)
  | Resp_irq_storm of { burst : int }
      (** Inject [burst] extra raise/lower edges per IRQ raise. *)
  | Guard_raise of { at_check : int }
      (** Raise {!Injected} inside the guest-side validator's boundary
          adjudication number [at_check] (0-based) — exercises the
          validator's own containment, as [Walk_raise] does the
          checker's. *)

type t = { id : int; site : site; policy : Sedspec.Checker.containment }

exception Injected of string
(** The synthetic fault [Walk_raise] throws from inside the checker. *)

type direction =
  | Substrate  (** Guest memory, persisted spec and walk sites. *)
  | Hostile  (** [Resp_*] sites and [Guard_raise]. *)

val generate : direction -> Sedspec_util.Prng.t -> n:int -> t list
(** [n] plans drawn from the generator: site uniform over the
    direction's kinds (the six substrate sites, or the four [Resp_*]
    sites plus [Guard_raise]), parameters from the constant pools below,
    policy fail-closed 3/4 of the time.  Pure function of the PRNG
    state. *)

val fleet_site : direction -> Sedspec_util.Prng.t -> site
(** One site to arm on a live fleet member: uniform over the direction's
    machine sites ([Guest_corrupt], [Guest_short], [Walk_raise],
    [Walk_delay]; or the four [Resp_*] sites).  The spec sites and
    [Guard_raise] cannot be armed through the fleet supervisor. *)

val direction_to_string : direction -> string
(** ["substrate"] or ["hostile"]. *)

val site_to_string : site -> string
val to_string : t -> string

val dictionary : int64 array
(** The plan constants (XOR masks, short-read limits, delay spins) as a
    mutation dictionary, so the fuzzer schedules the same fault shapes
    the campaign replays. *)

val masks : int64 array
val limits : int64 array
val spins : int array
val resp_deltas : int array
val bursts : int array
(** The individual constant pools {!generate} and {!fleet_site} draw
    from. *)
