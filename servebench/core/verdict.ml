(* Comparing two sets of benchmark runs, one (metric, workload) pair at a
   time, against the regression bounds BENCHMARK.json fixes. *)

type better = Lower | Higher

type metric = { name : string; better : better; bound : float }

type verdict = Faster | Slower | Within_noise | Unresolved of string

let min_runs = 5

let verdict_name = function
  | Faster -> "faster"
  | Slower -> "slower"
  | Within_noise -> "within-noise"
  | Unresolved why -> "unresolved (" ^ why ^ ")"

(* Medians decide, but only when both sides are steadier than the bound:
   a wider spread is unresolved unless every new run beats every old
   one. *)
let judge m ~old_ ~new_ =
  if List.length old_ < min_runs || List.length new_ < min_runs then
    Unresolved (Printf.sprintf "fewer than %d runs a side" min_runs)
  else
    let mo = Stats.median old_ and mn = Stats.median new_ in
    if mo <= 0. then Unresolved "zero median"
    else
      let worse = match m.better with Lower -> (mn -. mo) /. mo | Higher -> (mo -. mn) /. mo in
      let beats a b = match m.better with Lower -> a < b | Higher -> a > b in
      let spread = Float.max (Stats.spread old_) (Stats.spread new_) in
      if spread > m.bound then
        if List.for_all (fun n -> List.for_all (beats n) old_) new_ then Faster
        else
          Unresolved
            (Printf.sprintf "spread %.1f%% exceeds bound %.0f%%" (spread *. 100.)
               (m.bound *. 100.))
      else if worse > m.bound then Slower
      else if worse < -.m.bound then Faster
      else Within_noise

(* The gated metrics of a BENCHMARK.json. *)
let metrics_of_benchmark json =
  List.filter_map
    (fun m ->
      match
        ( Json.to_str (Json.member "name" m),
          Json.to_str (Json.member "better" m),
          Json.to_num (Json.member "bound" m) )
      with
      | Some name, Some better, Some bound ->
        Some { name; better = (if better = "higher" then Higher else Lower); bound }
      | _ -> None)
    (Json.to_list (Json.member "end_to_end" json))

type row = {
  workload : string;
  metric : string;
  old_median : float;
  new_median : float;
  verdict : verdict;
}

type errors = { e_workload : string; old_rate : float; new_rate : float }

let workload r = Option.value ~default:"?" (Json.to_str (Json.member "workload" r))

let values name runs =
  List.filter_map
    (fun r ->
      Option.bind (Json.member "metrics" r) (fun ms ->
          Option.bind (Json.member name ms) (fun m ->
              Json.to_num (Json.member "value" m))))
    runs

(* Failed statements plus failed output checks over attempted
   statements, pooled over a side's runs. *)
let error_rate runs =
  let sum k =
    List.fold_left
      (fun a r -> a +. Option.value ~default:0. (Json.to_num (Json.member k r)))
      0. runs
  in
  let incorrect =
    List.length (List.filter (fun r -> Json.member "correct" r <> Some (Json.Bool true)) runs)
  in
  (sum "failed" +. float_of_int incorrect) /. Float.max 1. (sum "attempted")

let workloads runs =
  List.fold_left
    (fun acc r -> if List.mem (workload r) acc then acc else acc @ [ workload r ])
    [] runs

(* Every (metric, workload) verdict plus per-workload error rates; the
   boolean says whether anything regressed (a slower verdict or a higher
   error rate), which is what [compare] turns into its exit status. *)
let compare_runs metrics ~old_ ~new_ =
  let ws = workloads (old_ @ new_) in
  let side w runs = List.filter (fun r -> workload r = w) runs in
  let rows =
    List.concat_map
      (fun w ->
        let o = side w old_ and n = side w new_ in
        List.filter_map
          (fun m ->
            match (values m.name o, values m.name n) with
            | [], [] -> None
            | vo, vn ->
              let med = function [] -> Float.nan | l -> Stats.median l in
              Some
                {
                  workload = w;
                  metric = m.name;
                  old_median = med vo;
                  new_median = med vn;
                  verdict = judge m ~old_:vo ~new_:vn;
                })
          metrics)
      ws
  in
  let errors =
    List.map
      (fun w ->
        {
          e_workload = w;
          old_rate = error_rate (side w old_);
          new_rate = error_rate (side w new_);
        })
      ws
  in
  let regressed =
    List.exists (fun r -> r.verdict = Slower) rows
    || List.exists (fun e -> e.new_rate > e.old_rate) errors
  in
  (rows, errors, regressed)
