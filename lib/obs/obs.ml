(* Observability registry: counters, gauges, histograms, timed spans.

   One process-wide table of preallocated mutable instruments; observation
   is a field or array-slot increment (no allocation), lookup happens only
   in [make].  Rendering walks a sorted snapshot so Prometheus text and
   JSON always agree. *)

(* ------------------------------------------------------------------ *)
(* Enablement *)

let enabled =
  ref
    (match Sys.getenv_opt "DC_METRICS" with
    | Some ("1" | "true" | "on" | "yes") -> true
    | _ -> false)

let on () = !enabled
let set_enabled b = enabled := b
let now_ms () = Unix.gettimeofday () *. 1000.

(* ------------------------------------------------------------------ *)
(* Instruments *)

type kind = KCounter | KGauge | KHistogram

(* Log-scale bucket upper bounds shared by every histogram: 0.001 * 4^i,
   spanning sub-microsecond observations to ~4.5 hours in ms units (the
   same bounds serve delta-size histograms; deltas are small integers and
   land in the low buckets).  A final implicit +Inf bucket catches the
   rest. *)
let bucket_bounds =
  Array.init 16 (fun i -> 0.001 *. (4. ** float_of_int i))

let n_finite = Array.length bucket_bounds

(* Domain-safe instruments: all hot-path cells are [Atomic.t], so
   concurrent [Counter.inc] / [Histogram.observe] calls from pool worker
   domains (lib/par) lose no updates.  Contention on a shared counter is
   a fetch-and-add on one cache line — acceptable for round-granular and
   merge-granular observations; per-row counters in lib/exec are plain
   ints, because a pipeline only ever runs on one domain. *)
type instrument = {
  i_name : string;
  i_labels : (string * string) list; (* sorted by label name *)
  i_kind : kind;
  i_count : int Atomic.t; (* counter value / histogram observation count *)
  i_sum : float Atomic.t; (* gauge value / histogram sum *)
  i_buckets : int Atomic.t array; (* [||] unless histogram; last is +Inf *)
}

(* Lock-free float accumulate over an [Atomic.t] cell. *)
let atomic_add_float cell v =
  let rec loop () =
    let cur = Atomic.get cell in
    if not (Atomic.compare_and_set cell cur (cur +. v)) then loop ()
  in
  loop ()

(* Registry keyed by name + rendered labels; [order] not kept — renderers
   sort, so output is deterministic whatever the registration order.
   The table itself is guarded by [registry_mutex]: instrument creation
   is cold-path ([make] at module init or per phase), so a lock there
   costs nothing, and it keeps concurrent [make]/[reset]/[snapshot]
   calls from racing the Hashtbl's internal resizing. *)
let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let key name labels =
  let b = Buffer.create 32 in
  Buffer.add_string b name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b '\x00';
      Buffer.add_string b k;
      Buffer.add_char b '\x01';
      Buffer.add_string b v)
    labels;
  Buffer.contents b

let find_or_create kind ?(labels = []) name =
  let labels =
    List.sort (fun (a, _) (b, _) -> String.compare a b) labels
  in
  let k = key name labels in
  with_registry @@ fun () ->
  match Hashtbl.find_opt registry k with
  | Some i ->
    if i.i_kind <> kind then
      invalid_arg
        (Printf.sprintf "Obs: instrument %s already registered with a \
                         different kind" name);
    i
  | None ->
    let i =
      {
        i_name = name;
        i_labels = labels;
        i_kind = kind;
        i_count = Atomic.make 0;
        i_sum = Atomic.make 0.;
        i_buckets =
          (if kind = KHistogram then
             Array.init (n_finite + 1) (fun _ -> Atomic.make 0)
           else [||]);
      }
    in
    Hashtbl.add registry k i;
    i

module Counter = struct
  type t = instrument

  let make ?labels name = find_or_create KCounter ?labels name
  let inc c = ignore (Atomic.fetch_and_add c.i_count 1)
  let add c n = ignore (Atomic.fetch_and_add c.i_count n)
  let value c = Atomic.get c.i_count
end

module Gauge = struct
  type t = instrument

  let make ?labels name = find_or_create KGauge ?labels name
  let set g v = Atomic.set g.i_sum v
  let add g v = atomic_add_float g.i_sum v
  let value g = Atomic.get g.i_sum
end

module Histogram = struct
  type t = instrument

  let make ?labels name = find_or_create KHistogram ?labels name

  let observe h v =
    (* linear scan over 16 bounds: branch-predictable, no allocation *)
    let i = ref 0 in
    while !i < n_finite && v > bucket_bounds.(!i) do
      incr i
    done;
    ignore (Atomic.fetch_and_add h.i_buckets.(!i) 1);
    ignore (Atomic.fetch_and_add h.i_count 1);
    atomic_add_float h.i_sum v

  let count h = Atomic.get h.i_count
  let sum h = Atomic.get h.i_sum
  let bucket_counts h = Array.map Atomic.get h.i_buckets
  let bucket_bounds = bucket_bounds
end

(* ------------------------------------------------------------------ *)
(* Spans *)

module Span = struct
  type event = {
    sp_name : string;
    sp_depth : int;
    sp_start_ms : float;
    sp_stop_ms : float;
    sp_seq_start : int;
    sp_seq_stop : int;
  }

  let log : event list ref = ref []
  let log_len = ref 0
  let log_cap = 4096
  let depth = ref 0

  (* Monotonic sequence numbers bumped at every span entry and exit:
     well-nestedness is checked over these exact integers, immune to the
     wall clock's resolution. *)
  let seq = ref 0

  let events () = !log

  let clear () =
    log := [];
    log_len := 0;
    depth := 0;
    seq := 0

  let dropped = lazy (Counter.make "dc_span_events_dropped_total")

  let record name d t0 t1 s0 s1 =
    if !log_len < log_cap then begin
      log :=
        {
          sp_name = name;
          sp_depth = d;
          sp_start_ms = t0;
          sp_stop_ms = t1;
          sp_seq_start = s0;
          sp_seq_stop = s1;
        }
        :: !log;
      incr log_len
    end
    else Counter.inc (Lazy.force dropped)

  let timed name f =
    if not !enabled then f ()
    else begin
      let d = !depth in
      incr depth;
      let s0 = !seq in
      incr seq;
      let t0 = now_ms () in
      Fun.protect
        ~finally:(fun () ->
          let t1 = now_ms () in
          let s1 = !seq in
          incr seq;
          decr depth;
          Histogram.observe
            (Histogram.make ~labels:[ ("span", name) ] "dc_span_ms")
            (t1 -. t0);
          record name d t0 t1 s0 s1)
        f
    end

  let well_nested () =
    (* Replay completed spans in entry order; the sequence intervals of a
       well-nested run behave like balanced parentheses. *)
    let evs =
      List.sort
        (fun a b -> compare a.sp_seq_start b.sp_seq_start)
        (events ())
    in
    let rec go stack = function
      | [] -> true
      | e :: rest ->
        let stack =
          (* pop spans that finished before this one started *)
          let rec pop = function
            | s :: tl when s.sp_seq_stop < e.sp_seq_start -> pop tl
            | st -> st
          in
          pop stack
        in
        let contained =
          match stack with
          | [] -> true
          | parent :: _ -> e.sp_seq_stop < parent.sp_seq_stop
        in
        contained && e.sp_depth = List.length stack && go (e :: stack) rest
    in
    go [] evs
end

(* ------------------------------------------------------------------ *)
(* Reset *)

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ i ->
          Atomic.set i.i_count 0;
          Atomic.set i.i_sum 0.;
          Array.iter (fun b -> Atomic.set b 0) i.i_buckets)
        registry);
  Span.clear ()

(* ------------------------------------------------------------------ *)
(* Rendering *)

let snapshot () =
  let all =
    with_registry (fun () -> Hashtbl.fold (fun _ i acc -> i :: acc) registry [])
  in
  List.sort
    (fun a b ->
      match String.compare a.i_name b.i_name with
      | 0 -> compare a.i_labels b.i_labels
      | c -> c)
    all

(* Prometheus label-value escaping: backslash, double quote, newline. *)
let prom_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels ?extra labels =
  let labels = match extra with None -> labels | Some kv -> labels @ [ kv ] in
  match labels with
  | [] -> ""
  | labels ->
    let items =
      List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) labels
    in
    "{" ^ String.concat "," items ^ "}"

(* %.17g-style shortest-roundtrip floats would be noisy; metrics consumers
   are fine with a compact decimal. *)
let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let to_prometheus () =
  let b = Buffer.create 1024 in
  let seen_type : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun i ->
      if not (Hashtbl.mem seen_type i.i_name) then begin
        Hashtbl.add seen_type i.i_name ();
        let ty =
          match i.i_kind with
          | KCounter -> "counter"
          | KGauge -> "gauge"
          | KHistogram -> "histogram"
        in
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" i.i_name ty)
      end;
      match i.i_kind with
      | KCounter ->
        Buffer.add_string b
          (Printf.sprintf "%s%s %d\n" i.i_name (prom_labels i.i_labels)
             (Atomic.get i.i_count))
      | KGauge ->
        Buffer.add_string b
          (Printf.sprintf "%s%s %s\n" i.i_name (prom_labels i.i_labels)
             (prom_float (Atomic.get i.i_sum)))
      | KHistogram ->
        let cum = ref 0 in
        Array.iteri
          (fun bi n ->
            cum := !cum + Atomic.get n;
            let le =
              if bi < n_finite then prom_float bucket_bounds.(bi) else "+Inf"
            in
            Buffer.add_string b
              (Printf.sprintf "%s_bucket%s %d\n" i.i_name
                 (prom_labels ~extra:("le", le) i.i_labels)
                 !cum))
          i.i_buckets;
        Buffer.add_string b
          (Printf.sprintf "%s_sum%s %s\n" i.i_name (prom_labels i.i_labels)
             (prom_float (Atomic.get i.i_sum)));
        Buffer.add_string b
          (Printf.sprintf "%s_count%s %d\n" i.i_name (prom_labels i.i_labels)
             (Atomic.get i.i_count)))
    (snapshot ());
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"metrics\": [";
  List.iteri
    (fun idx i ->
      if idx > 0 then Buffer.add_string b ", ";
      Buffer.add_string b "{\"name\": \"";
      Buffer.add_string b (json_escape i.i_name);
      Buffer.add_string b "\", \"labels\": {";
      List.iteri
        (fun li (k, v) ->
          if li > 0 then Buffer.add_string b ", ";
          Buffer.add_string b
            (Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v)))
        i.i_labels;
      Buffer.add_string b "}, ";
      (match i.i_kind with
      | KCounter ->
        Buffer.add_string b
          (Printf.sprintf "\"type\": \"counter\", \"value\": %d"
             (Atomic.get i.i_count))
      | KGauge ->
        Buffer.add_string b
          (Printf.sprintf "\"type\": \"gauge\", \"value\": %s"
             (prom_float (Atomic.get i.i_sum)))
      | KHistogram ->
        Buffer.add_string b
          (Printf.sprintf "\"type\": \"histogram\", \"count\": %d, \"sum\": %s, \"buckets\": ["
             (Atomic.get i.i_count) (prom_float (Atomic.get i.i_sum)));
        let cum = ref 0 in
        Array.iteri
          (fun bi n ->
            cum := !cum + Atomic.get n;
            if bi > 0 then Buffer.add_string b ", ";
            let le =
              if bi < n_finite then prom_float bucket_bounds.(bi)
              else "\"+Inf\""
            in
            Buffer.add_string b
              (Printf.sprintf "{\"le\": %s, \"count\": %d}" le !cum))
          i.i_buckets;
        Buffer.add_string b "]");
      Buffer.add_string b "}")
    (snapshot ());
  Buffer.add_string b "]}";
  Buffer.contents b
