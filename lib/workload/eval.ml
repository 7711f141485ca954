(* Policy × trace evaluation harness: replay subjects over traces and
   tabulate hit rates against the Belady-OPT bound.  Shared by
   bench -- workload and the cq-workload CLI so their tables agree. *)

module Mealy = Cq_automata.Mealy
module Policy = Cq_policy.Policy

type row = {
  subject : string;
  trace : string;
  accesses : int;
  hits : int;
  rate : float;
  opt_hits : int;
  opt_rate : float;
}

let row_of ~subject ~assoc ?cold (tr : Trace.t) (o : Replay.outcome) =
  let opt = Opt.replay ~assoc ?cold tr.Trace.blocks in
  {
    subject;
    trace = tr.Trace.label;
    accesses = Array.length tr.Trace.blocks;
    hits = o.Replay.hits;
    rate = Replay.hit_rate o;
    opt_hits = opt.Replay.hits;
    opt_rate = Replay.hit_rate opt;
  }

let policies ?cold subjects traces =
  List.concat_map
    (fun (subject, p) ->
      let assoc = Policy.assoc p in
      List.map
        (fun tr ->
          let o = Replay.policy ?cold p tr.Trace.blocks in
          row_of ~subject ~assoc ?cold tr o)
        traces)
    subjects

let machines ?cold subjects traces =
  List.concat_map
    (fun (subject, c) ->
      let assoc = Mealy.compiled_n_inputs c - 1 in
      List.map
        (fun tr ->
          let o = Replay.compiled ?cold c tr.Trace.blocks in
          row_of ~subject ~assoc ?cold tr o)
        traces)
    subjects

let pp_table ppf rows =
  let subj_w =
    List.fold_left (fun w r -> max w (String.length r.subject)) 7 rows
  in
  let trace_w =
    List.fold_left (fun w r -> max w (String.length r.trace)) 5 rows
  in
  Format.fprintf ppf "%-*s  %-*s  %10s  %10s  %7s  %7s  %7s@."
    subj_w "subject" trace_w "trace" "accesses" "hits" "hit%" "OPT%" "gap";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-*s  %-*s  %10d  %10d  %7.3f  %7.3f  %7.3f@."
        subj_w r.subject trace_w r.trace r.accesses r.hits (100.0 *. r.rate)
        (100.0 *. r.opt_rate)
        (100.0 *. (r.opt_rate -. r.rate)))
    rows

let pp_attribution ?(top = 10) ppf (a : Replay.attribution) =
  let rows = Replay.top_miss_states a top in
  Format.fprintf ppf "%6s  %10s  %10s  %7s@." "state" "misses" "hits"
    "miss%";
  List.iter
    (fun (s, m, h) ->
      let tot = m + h in
      let pct = if tot = 0 then 0.0 else 100.0 *. float_of_int m /. float_of_int tot in
      Format.fprintf ppf "%6d  %10d  %10d  %7.3f@." s m h pct)
    rows;
  Format.fprintf ppf "victim ways:";
  Array.iteri
    (fun w n -> Format.fprintf ppf " %d:%d" w n)
    a.Replay.victims;
  Format.fprintf ppf "@."
