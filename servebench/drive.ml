(* The closed-loop client: one wire connection, whose next statement is
   sent only after the previous reply arrived (no think time).
   Statements come in indivisible units (a closure_batch pass is five).
   A window is cut into slices of whole units, at least [slice_s] long;
   the host's speed (Calib) is measured between slices, while the server
   is idle, and every sample carries the mean of the two measurements
   around its slice. *)

open Dc_relation
module Client = Dc_net.Net.Client

type stmt = {
  kind : string;  (** cost class, for the per-class report *)
  key : int;  (** the seeded key a read asks for, or -1 *)
  text : string;
  write : bool;
}

type response = Rows of Tuple.t list | Output of string

type sample = {
  s_kind : string;
  s_write : bool;
  s_ms : float;  (** client-side latency, as measured *)
  s_factor : float;  (** host slowness around the sample's slice *)
}

type slice = {
  stmts : int;
  busy_s : float;  (** wall time of the slice's units *)
  factor : float;
}

type result = {
  samples : sample list;
  slices : slice list;
  attempted : int;
  failed : int;  (** statements that raised plus responses that failed [check] *)
  errors : string list;  (** first few failures, for the log *)
}

let now = Clock.now

let slice_s = 0.5

let connect port = Client.connect ~timeout:120. (Dc_net.Net.Tcp ("127.0.0.1", port))

let exec c st =
  if st.write then Output (Client.exec c st.text)
  else
    let _, _, rows = Client.query c st.text in
    Rows rows

let describe = function
  | Client.Remote (code, msg) -> Fmt.str "%a error: %s" Dc_net.Wire.pp_error_code code msg
  | e -> Printexc.to_string e

(* Run statements from [next] on [conn] until [seconds] have passed, in
   whole units of [unit_len].  A statement that raises ends the window:
   a healthy run has none. *)
let window ~conn ~next ~unit_len ~check ~seconds =
  let deadline = now () +. seconds in
  let samples = ref [] and slices = ref [] and attempted = ref 0 and failed = ref 0 in
  let errors = ref [] and stop = ref false in
  let fail msg = incr failed; if List.length !errors < 5 then errors := msg :: !errors in
  let before = ref (Calib.factor ()) in
  while (not !stop) && now () < deadline do
    let t0 = now () and mine = ref [] in
    while (not !stop) && now () -. t0 < slice_s do
      for _ = 1 to unit_len do
        if not !stop then begin
          let st = next () in
          incr attempted;
          let s0 = now () in
          match exec conn st with
          | resp ->
            mine := (st, (now () -. s0) *. 1000.) :: !mine;
            if not (check st resp) then fail ("wrong answer: " ^ st.text)
          | exception e ->
            stop := true;
            fail (describe e ^ ": " ^ st.text)
        end
      done
    done;
    let busy_s = now () -. t0 in
    let after = Calib.factor () in
    let factor = (!before +. after) /. 2. in
    before := after;
    List.iter
      (fun (st, ms) ->
        samples := { s_kind = st.kind; s_write = st.write; s_ms = ms; s_factor = factor } :: !samples)
      !mine;
    if not !stop then slices := { stmts = List.length !mine; busy_s; factor } :: !slices
  done;
  { samples = !samples; slices = !slices; attempted = !attempted; failed = !failed; errors = !errors }
