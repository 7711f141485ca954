(* Deterministic fault injection.

   The resilience layer's whole claim — any injected fault either heals
   transparently or fails typed and resumable — is only testable if the
   faults themselves are reproducible.  This registry names every
   injection point in the stack (a "site": the atomic-file fsync, a frame
   write, a learn worker's probe) and drives each from a schedule plus a
   seeded PRNG, so a chaos run is a pure function of (seed, schedule) and
   a failure found in CI replays exactly on a laptop.

   Call sites are passive: they ask [fire t site] ("should this
   activation fault?") and act on [true] — raise ENOSPC, tear the frame,
   kill the worker.  A site that is not armed costs one Hashtbl probe;
   the ambient check for a disabled registry costs one load.  Sites fire
   independently; each derives its PRNG from the registry seed and its
   own name, so arming an extra site never perturbs another site's
   schedule. *)

exception Injected of { site : string; detail : string }

let () =
  Printexc.register_printer (function
    | Injected { site; detail } ->
        Some (Printf.sprintf "Faults.Injected(%s: %s)" site detail)
    | _ -> None)

type mode =
  | Nth of int
  | Every of int
  | First of int
  | Prob of float
  | Reach of int

type site_state = {
  mode : mode;
  limit : int option;
  prng : Prng.t;
  mutable hits : int;
  mutable fires : int;
}

type t = {
  m : Mutex.t;
  seed : int;
  sites : (string, site_state) Hashtbl.t;
}

let create ?(seed = 0) () =
  { m = Mutex.create (); seed; sites = Hashtbl.create 8 }

let validate_mode = function
  | Nth k | Every k | First k | Reach k ->
      if k < 1 then invalid_arg "Faults.arm: schedule count must be >= 1"
  | Prob p ->
      if not (p >= 0.0 && p <= 1.0) then
        invalid_arg "Faults.arm: probability must be in [0, 1]"

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let arm t ?limit ~site mode =
  validate_mode mode;
  (match limit with
  | Some l when l < 0 -> invalid_arg "Faults.arm: limit must be >= 0"
  | _ -> ());
  locked t (fun () ->
      Hashtbl.replace t.sites site
        {
          mode;
          limit;
          (* Site-local stream: independent of arming order and of what
             other sites consumed. *)
          prng = Prng.of_int (t.seed lxor Hashtbl.hash site);
          hits = 0;
          fires = 0;
        })

let fire ?n t site =
  locked t (fun () ->
      match Hashtbl.find_opt t.sites site with
      | None -> false
      | Some s ->
          s.hits <- s.hits + 1;
          let within_limit =
            match s.limit with None -> true | Some l -> s.fires < l
          in
          let due =
            match s.mode with
            | Nth k -> s.hits = k
            | Every k -> s.hits mod k = 0
            | First k -> s.hits <= k
            | Prob p -> Prng.bool s.prng p
            | Reach k -> (
                (* Threshold on an external measure (a query count): fire
                   once, the first time the measure reaches k. *)
                match n with
                | Some n -> n >= k && s.fires = 0
                | None -> false)
          in
          if due && within_limit then begin
            s.fires <- s.fires + 1;
            true
          end
          else false)

let inject ?n ?(detail = "injected fault") t site =
  if fire ?n t site then raise (Injected { site; detail })

let hits t site =
  locked t (fun () ->
      match Hashtbl.find_opt t.sites site with None -> 0 | Some s -> s.hits)

let fires t site =
  locked t (fun () ->
      match Hashtbl.find_opt t.sites site with None -> 0 | Some s -> s.fires)

let counts t =
  locked t (fun () ->
      Hashtbl.fold (fun site s acc -> (site, s.hits, s.fires) :: acc) t.sites []
      |> List.sort compare)

let total_fires t =
  List.fold_left (fun acc (_, _, f) -> acc + f) 0 (counts t)

(* --- the ambient registry ------------------------------------------------

   Deep seams (Atomic_file, the frame codec) cannot thread a registry
   parameter through every caller; they consult the process-wide ambient
   registry instead.  [None] (the default, and the production state) makes
   every ambient check a single load-and-compare. *)

let ambient_reg : t option ref = ref None

let set_ambient r = ambient_reg := r
let ambient () = !ambient_reg

let ambient_fire ?n site =
  match !ambient_reg with None -> false | Some t -> fire ?n t site

let ambient_inject ?n ?detail site =
  match !ambient_reg with None -> () | Some t -> inject ?n ?detail t site

let with_ambient t f =
  let prev = !ambient_reg in
  ambient_reg := Some t;
  Fun.protect ~finally:(fun () -> ambient_reg := prev) f

(* --- schedule specs ------------------------------------------------------

   One line of shell-safe text describes a whole chaos schedule, so CI
   jobs and the daemon's --faults flag can arm the registry without code:

     site:nth=K | site:every=K | site:first=K | site:p=F | site:reach=K

   with an optional [,limit=N] per clause; clauses joined by [;]. *)

let spec_syntax =
  "SITE:nth=K|every=K|first=K|p=F|reach=K[,limit=N] clauses joined by ';'"

let of_spec ?seed spec =
  let t = create ?seed () in
  let clause c =
    match String.index_opt c ':' with
    | None -> Error (Printf.sprintf "clause %S lacks a ':' (%s)" c spec_syntax)
    | Some i -> (
        let site = String.sub c 0 i in
        let rest = String.sub c (i + 1) (String.length c - i - 1) in
        if site = "" then Error (Printf.sprintf "clause %S names no site" c)
        else
          let parts = String.split_on_char ',' rest in
          let parse_kv kv =
            match String.index_opt kv '=' with
            | None -> Error (Printf.sprintf "expected key=value, got %S" kv)
            | Some j ->
                Ok
                  ( String.sub kv 0 j,
                    String.sub kv (j + 1) (String.length kv - j - 1) )
          in
          let rec fold mode limit = function
            | [] -> (
                match mode with
                | Some m -> Ok (m, limit)
                | None ->
                    Error (Printf.sprintf "clause %S has no schedule" c))
            | kv :: tl -> (
                match parse_kv kv with
                | Error _ as e -> e
                | Ok (k, v) -> (
                    let int_v () =
                      match int_of_string_opt v with
                      | Some n -> Ok n
                      | None -> Error (Printf.sprintf "%S is not an integer" v)
                    in
                    match k with
                    | "nth" ->
                        Result.bind (int_v ()) (fun n ->
                            fold (Some (Nth n)) limit tl)
                    | "every" ->
                        Result.bind (int_v ()) (fun n ->
                            fold (Some (Every n)) limit tl)
                    | "first" ->
                        Result.bind (int_v ()) (fun n ->
                            fold (Some (First n)) limit tl)
                    | "reach" ->
                        Result.bind (int_v ()) (fun n ->
                            fold (Some (Reach n)) limit tl)
                    | "p" -> (
                        match float_of_string_opt v with
                        | Some p -> fold (Some (Prob p)) limit tl
                        | None ->
                            Error (Printf.sprintf "%S is not a float" v))
                    | "limit" ->
                        Result.bind (int_v ()) (fun n -> fold mode (Some n) tl)
                    | k -> Error (Printf.sprintf "unknown key %S" k)))
          in
          match fold None None parts with
          | Error _ as e -> e
          | Ok (mode, limit) -> (
              match validate_mode mode with
              | () ->
                  arm t ?limit ~site mode;
                  Ok ()
              | exception Invalid_argument msg -> Error msg))
  in
  let clauses =
    String.split_on_char ';' spec
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  let rec go = function
    | [] -> Ok t
    | c :: tl -> ( match clause c with Ok () -> go tl | Error _ as e -> e)
  in
  go clauses
