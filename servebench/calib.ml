(* Host speed.  The benchmark's host shares its cores with other tenants,
   and their load changes how fast the same code runs here: the speed of
   a fixed loop moved by up to 1.8 times within five minutes.  A fixed
   reference computation, timed between the slices of a measured window
   and around every set-up, tracks that speed.  Gated times are scaled to
   a host on which the reference takes [nominal_s]; the raw times are
   printed beside them. *)

module SM = Map.Make (String)

let keys = Array.init 4096 (fun i -> Printf.sprintf "n%d" ((i * 7919) mod 100_003))

(* Allocation, string comparison and hashing in a balanced map: the kind
   of work the server does per tuple. *)
let work () =
  let m = Array.fold_left (fun m k -> SM.add k (String.length k) m) SM.empty keys in
  Array.fold_left (fun h k -> h + Hashtbl.hash k + SM.find k m) 0 keys

(* The reference's time on a quiet 2.0 GHz Xeon virtual machine. *)
let nominal_s = 1.8e-3

let sink = ref 0

(* How many times slower than nominal the host runs now: the best of
   three timings, the one least disturbed by interrupts. *)
let factor () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Clock.now () in
    sink := !sink + work ();
    best := Float.min !best (Clock.now () -. t0)
  done;
  !best /. nominal_s
