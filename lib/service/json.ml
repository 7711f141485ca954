(* The daemon's JSON is the shared [Cq_util.Json]; this alias exists so
   code written against [Cq_service.Json] (perfbench/ among it) keeps
   building unchanged. *)
include Cq_util.Json
