module Prng = Sedspec_util.Prng

type site =
  | Guest_corrupt of { mask : int64 }
  | Guest_short of { limit : int64 }
  | Spec_bit_flip of { flips : int }
  | Spec_truncate
  | Walk_raise of { at_walk : int }
  | Walk_delay of { at_walk : int; spin : int }
  | Resp_read_corrupt of { mask : int64 }
  | Resp_dma_len of { delta : int }
  | Resp_store_corrupt of { mask : int64 }
  | Resp_irq_storm of { burst : int }
  | Guard_raise of { at_check : int }

type t = { id : int; site : site; policy : Sedspec.Checker.containment }

exception Injected of string

(* Constant pools: corruption masks hitting single bits, sign bits and
   dense patterns; short-read limits at guest-physical landmarks (page,
   64K, legacy hole, megabyte marks); spin counts spanning noise to a
   visible latency spike. *)
let masks =
  [|
    0x1L;
    0x80L;
    0xFFL;
    0xDEADBEEFL;
    0xFFFFFFFFL;
    0x5555555555555555L;
    0xAAAAAAAAAAAAAAAAL;
    0x8000000000000000L;
  |]

let limits = [| 0x0L; 0x100L; 0x1000L; 0x10000L; 0xA0000L; 0x100000L |]
let spins = [| 64; 1024; 16384 |]

(* Response-direction pools: DMA-length deltas spanning truncation,
   off-by-one and page-scale inflation; IRQ-storm bursts from nuisance to
   flood. *)
let resp_deltas = [| -512; -1; 1; 64; 4096 |]
let bursts = [| 3; 8; 32 |]

let dictionary =
  Array.concat
    [
      masks;
      limits;
      Array.map Int64.of_int spins;
      Array.map Int64.of_int resp_deltas;
      Array.map Int64.of_int bursts;
    ]

type direction = Substrate | Hostile

(* Substrate sites: the guest memory, persisted spec and walk seams the
   checker depends on but does not control. *)
let gen_substrate_site rng =
  match Prng.int rng 6 with
  | 0 -> Guest_corrupt { mask = Prng.pick rng masks }
  | 1 -> Guest_short { limit = Prng.pick rng limits }
  | 2 -> Spec_bit_flip { flips = 1 + Prng.int rng 8 }
  | 3 -> Spec_truncate
  | 4 -> Walk_raise { at_walk = Prng.int rng 24 }
  | _ -> Walk_delay { at_walk = Prng.int rng 24; spin = Prng.pick rng spins }

(* Hostile-device sites: corruptions of what the device feeds back to the
   guest, plus the validator's own fault seam. *)
let gen_hostile_site rng =
  match Prng.int rng 5 with
  | 0 -> Resp_read_corrupt { mask = Prng.pick rng masks }
  | 1 -> Resp_dma_len { delta = Prng.pick rng resp_deltas }
  | 2 -> Resp_store_corrupt { mask = Prng.pick rng masks }
  | 3 -> Resp_irq_storm { burst = Prng.pick rng bursts }
  | _ -> Guard_raise { at_check = Prng.int rng 24 }

let generate direction rng ~n =
  let gen =
    match direction with
    | Substrate -> gen_substrate_site
    | Hostile -> gen_hostile_site
  in
  List.init n (fun id ->
      let site = gen rng in
      let policy : Sedspec.Checker.containment =
        if Prng.chance rng 0.25 then Sedspec.Checker.Fail_open_warn
        else Sedspec.Checker.Fail_closed
      in
      { id; site; policy })

(* Sites armed on a live fleet member.  Substrate: the spec sites are
   exercised by the load path (Vm's backoff'd Persist retries), not by
   arming.  Hostile: [Guard_raise] cannot flow through the supervisor's
   arm seam (it has no validator handle), so the pool is the four
   corruption sites. *)
let fleet_site direction rng =
  match direction with
  | Substrate -> (
    match Prng.int rng 4 with
    | 0 -> Guest_corrupt { mask = Prng.pick rng masks }
    | 1 -> Guest_short { limit = Prng.pick rng limits }
    | 2 -> Walk_raise { at_walk = Prng.int rng 6 }
    | _ -> Walk_delay { at_walk = Prng.int rng 6; spin = Prng.pick rng spins })
  | Hostile -> (
    match Prng.int rng 4 with
    | 0 -> Resp_read_corrupt { mask = Prng.pick rng masks }
    | 1 -> Resp_dma_len { delta = Prng.pick rng resp_deltas }
    | 2 -> Resp_store_corrupt { mask = Prng.pick rng masks }
    | _ -> Resp_irq_storm { burst = Prng.pick rng bursts })

let direction_to_string = function
  | Substrate -> "substrate"
  | Hostile -> "hostile"

let site_to_string = function
  | Guest_corrupt { mask } -> Printf.sprintf "guest-corrupt mask=0x%Lx" mask
  | Guest_short { limit } -> Printf.sprintf "guest-short limit=0x%Lx" limit
  | Spec_bit_flip { flips } -> Printf.sprintf "spec-bit-flip flips=%d" flips
  | Spec_truncate -> "spec-truncate"
  | Walk_raise { at_walk } -> Printf.sprintf "walk-raise at=%d" at_walk
  | Walk_delay { at_walk; spin } ->
    Printf.sprintf "walk-delay at=%d spin=%d" at_walk spin
  | Resp_read_corrupt { mask } -> Printf.sprintf "resp-read-corrupt mask=0x%Lx" mask
  | Resp_dma_len { delta } -> Printf.sprintf "resp-dma-len delta=%d" delta
  | Resp_store_corrupt { mask } ->
    Printf.sprintf "resp-store-corrupt mask=0x%Lx" mask
  | Resp_irq_storm { burst } -> Printf.sprintf "resp-irq-storm burst=%d" burst
  | Guard_raise { at_check } -> Printf.sprintf "guard-raise at=%d" at_check

let to_string p =
  Printf.sprintf "#%d %s policy=%s" p.id (site_to_string p.site)
    (match p.policy with
    | Sedspec.Checker.Fail_closed -> "fail-closed"
    | Sedspec.Checker.Fail_open_warn -> "fail-open-warn")
