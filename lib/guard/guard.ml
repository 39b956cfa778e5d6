(* The unified resource governor.  See guard.mli for the contract.

   Hot-path design: [tick] is called once per operator row emission in
   the physical executor, so it must cost almost nothing when no limit
   is in force.  The shared [none] guard has every limit at [max_int]
   and no deadline, so a tick is: one (rarely-taken) failpoint-armed
   read, one increment, and one combined comparison.  The deadline is
   polled only every 256 rows — wall clocks are expensive — while
   [round]/[check] poll it unconditionally, so coarse-grained loops
   still respect deadlines even when few rows flow. *)

type limits = {
  l_millis : int option;
  l_rows : int option;
  l_rounds : int option;
}

let no_limits = { l_millis = None; l_rows = None; l_rounds = None }

let limits ?millis ?rows ?rounds () =
  { l_millis = millis; l_rows = rows; l_rounds = rounds }

type reason =
  | Rows_exhausted of int
  | Rounds_exhausted of int
  | Deadline_exceeded of int
  | Cancelled
  | Fault_injected of string

type progress = {
  pg_rows : int;
  pg_rounds : int;
  pg_elapsed_ms : float;
  pg_operator : string option;
  pg_site : string option;
}

exception Exhausted of reason * progress

(* The consumed-budget cells are [Atomic.t]: one guard is shared by all
   worker domains of a parallel round (lib/par), so the row budget is a
   single process-wide pool and exhaustion trips as soon as the *global*
   count crosses the limit — each domain may overshoot by at most its
   in-flight tick, never by a per-domain budget.  Cancellation is an
   atomic flag for the same reason: [cancel] from any domain (the pool's
   first-error hook) is visible to every sibling's next tick. *)
type t = {
  lim_rows : int;
  lim_rounds : int;
  lim_millis : int;
  deadline : float;  (* absolute, Unix epoch seconds; +inf when unset *)
  has_deadline : bool;
  started : float;
  rows : int Atomic.t;
  rounds : int Atomic.t;
  cancelled : bool Atomic.t;
}

let now () = Unix.gettimeofday ()

let none =
  {
    lim_rows = max_int;
    lim_rounds = max_int;
    lim_millis = max_int;
    deadline = infinity;
    has_deadline = false;
    started = 0.;
    rows = Atomic.make 0;
    rounds = Atomic.make 0;
    cancelled = Atomic.make false;
  }

let is_none g = g == none

let create ?millis ?rows ?rounds () =
  let started = now () in
  let lim v = Option.value v ~default:max_int in
  {
    lim_rows = lim rows;
    lim_rounds = lim rounds;
    lim_millis = lim millis;
    deadline =
      (match millis with
      | None -> infinity
      | Some ms -> started +. (float_of_int ms /. 1000.));
    has_deadline = millis <> None;
    started;
    rows = Atomic.make 0;
    rounds = Atomic.make 0;
    cancelled = Atomic.make false;
  }

let of_limits l =
  match l with
  | { l_millis = None; l_rows = None; l_rounds = None } -> none
  | { l_millis; l_rows; l_rounds } ->
      create ?millis:l_millis ?rows:l_rows ?rounds:l_rounds ()

let cancel g = if g != none then Atomic.set g.cancelled true
let rows g = Atomic.get g.rows
let rounds g = Atomic.get g.rounds
let elapsed_ms g = if g == none then 0. else (now () -. g.started) *. 1000.

let progress ?operator ?site g =
  {
    pg_rows = Atomic.get g.rows;
    pg_rounds = Atomic.get g.rounds;
    pg_elapsed_ms = elapsed_ms g;
    pg_operator = operator;
    pg_site = site;
  }

(* Cold path: decide which limit tripped and raise.  Called only after
   the combined hot-path comparison already said "something is wrong",
   so clarity beats speed here.  Cancellation wins over budget trips so
   that a cancelled guard reports [Cancelled] even at a budget edge. *)
let trip ?operator ?site g =
  let reason =
    if Atomic.get g.cancelled then Cancelled
    else if Atomic.get g.rows > g.lim_rows then Rows_exhausted g.lim_rows
    else if Atomic.get g.rounds > g.lim_rounds then
      Rounds_exhausted g.lim_rounds
    else Deadline_exceeded g.lim_millis
  in
  raise (Exhausted (reason, progress ?operator ?site g))

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

module Failpoint = struct
  let armed = ref false
  let table : (string, int ref) Hashtbl.t = Hashtbl.create 7

  let arm site n =
    if n < 1 then invalid_arg "Guard.Failpoint.arm: count must be >= 1";
    Hashtbl.replace table site (ref n);
    armed := true

  let reset () =
    Hashtbl.reset table;
    armed := false

  let pending () =
    Hashtbl.fold (fun site r acc -> (site, !r) :: acc) table []
    |> List.sort compare

  let hit ?guard site =
    (* Failpoints fire deterministically on the main domain only: pool
       workers hitting the same site neither decrement the schedule nor
       race the table, so an armed count of N means N main-domain hits
       regardless of the parallelism degree. *)
    if not (Domain.is_main_domain ()) then ()
    else
    match Hashtbl.find_opt table site with
    | None -> ()
    | Some r ->
        decr r;
        if !r <= 0 then begin
          Hashtbl.remove table site;
          if Hashtbl.length table = 0 then armed := false;
          let g = Option.value guard ~default:none in
          raise (Exhausted (Fault_injected site, progress ~site g))
        end

  let install spec =
    String.split_on_char ',' spec
    |> List.iter (fun part ->
           let part = String.trim part in
           if part <> "" then
             match String.index_opt part '=' with
             | None -> arm part 1
             | Some i ->
                 let site = String.trim (String.sub part 0 i) in
                 let count =
                   String.trim
                     (String.sub part (i + 1) (String.length part - i - 1))
                 in
                 let n =
                   match int_of_string_opt count with
                   | Some n when n >= 1 -> n
                   | _ ->
                       invalid_arg
                         (Fmt.str "Guard.Failpoint.install: bad count %S in %S"
                            count spec)
                 in
                 if site = "" then
                   invalid_arg
                     (Fmt.str "Guard.Failpoint.install: empty site in %S" spec);
                 arm site n)

  (* Arm the env-var schedule once at startup so any binary (tests, CI,
     the CLI) can be fault-injected without code changes. *)
  let () =
    match Sys.getenv_opt "DC_FAILPOINT" with
    | None | Some "" -> ()
    | Some spec -> (
        try install spec
        with Invalid_argument msg ->
          reset ();
          Fmt.epr "warning: ignoring DC_FAILPOINT: %s@." msg)
end

(* ------------------------------------------------------------------ *)
(* Tick sites                                                          *)

(* The [g != none] fast path matters doubly under parallelism: the
   shared unlimited guard would otherwise be a cache line fought over by
   every domain on every emitted row.  [none] can never trip (all limits
   at max_int, no deadline, cancel is a no-op), so skipping its
   bookkeeping is observationally neutral. *)

let tick g label =
  if !Failpoint.armed then Failpoint.hit ~guard:g "exec.row";
  if g != none then begin
    let n = Atomic.fetch_and_add g.rows 1 + 1 in
    if
      n > g.lim_rows
      || Atomic.get g.cancelled
      || (g.has_deadline && n land 255 = 0 && now () > g.deadline)
    then trip ~operator:(Lazy.force label) g
  end

(* [count] rows at once, as [count] {!tick}s would count them: the row
   budget, a cancel and the deadline (read when the rows cross a multiple
   of 256) trip at the row a tick per row would have tripped at, and the
   count is set back to that row.  An armed failpoint sees each row. *)
let ticks g label count =
  if !Failpoint.armed then
    for _ = 1 to count do
      tick g label
    done
  else if g != none && count > 0 then begin
    let before = Atomic.fetch_and_add g.rows count in
    let after = before + count in
    (* the first multiple of 256 above [before] *)
    let boundary = (before lor 255) + 1 in
    let late = g.has_deadline && boundary <= after && now () > g.deadline in
    if after > g.lim_rows || Atomic.get g.cancelled || late then begin
      (* the first row at which a limit trips *)
      let at =
        if Atomic.get g.cancelled then before + 1
        else
          min
            (if after > g.lim_rows then max (before + 1) (g.lim_rows + 1) else after)
            (if late then boundary else after)
      in
      ignore (Atomic.fetch_and_add g.rows (at - after));
      trip ~operator:(Lazy.force label) g
    end
  end

let round g ~site =
  if !Failpoint.armed then Failpoint.hit ~guard:g site;
  if g != none then begin
    let n = Atomic.fetch_and_add g.rounds 1 + 1 in
    if
      n > g.lim_rounds
      || Atomic.get g.cancelled
      || (g.has_deadline && now () > g.deadline)
    then trip ~site g
  end

let check g ~site =
  if !Failpoint.armed then Failpoint.hit ~guard:g site;
  if
    g != none
    && (Atomic.get g.cancelled || (g.has_deadline && now () > g.deadline))
  then trip ~site g

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let pp_reason ppf = function
  | Rows_exhausted n -> Fmt.pf ppf "row budget exhausted (limit %d)" n
  | Rounds_exhausted n -> Fmt.pf ppf "round budget exhausted (limit %d)" n
  | Deadline_exceeded ms -> Fmt.pf ppf "deadline exceeded (limit %d ms)" ms
  | Cancelled -> Fmt.string ppf "cancelled"
  | Fault_injected site -> Fmt.pf ppf "fault injected at %s" site

let pp_progress ppf p =
  Fmt.pf ppf "%d rows, %d rounds, %.1f ms elapsed" p.pg_rows p.pg_rounds
    p.pg_elapsed_ms;
  (match p.pg_operator with
  | Some op -> Fmt.pf ppf ", at operator %s" op
  | None -> ());
  match p.pg_site with
  | Some site -> Fmt.pf ppf ", at site %s" site
  | None -> ()

let pp_report ppf (reason, p) =
  Fmt.pf ppf "@[<v>evaluation stopped: %a@,partial progress: %a@]" pp_reason
    reason pp_progress p
