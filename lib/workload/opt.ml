(* Belady's OPT.

   Classic two-pass formulation: a backward scan precomputes, for every
   access position, the index of the block's next use (len = never); the
   shared replay loop then runs a chooser that keeps each resident way's
   next-use index and evicts the way whose value is largest, lowest way on
   ties.  Blocks resident initially but never accessed carry next-use =
   never and are evicted first — exactly what clairvoyance dictates. *)

let never = max_int

let replay ~assoc ?(cold = false) blocks =
  let len = Array.length blocks in
  (* next_use.(j): index of the next access to blocks.(j) after j. *)
  let next_use = Array.make (max len 1) never in
  let universe = Replay.universe ~assoc ~cold blocks in
  let last_seen = Array.make universe never in
  for j = len - 1 downto 0 do
    let b = blocks.(j) in
    next_use.(j) <- last_seen.(b);
    last_seen.(b) <- j
  done;
  (* After the backward pass, last_seen.(b) is b's first occurrence — the
     next use of an initially-resident block. *)
  let way_next =
    Array.init assoc (fun w -> if cold then never else last_seen.(w))
  in
  let touch j w = way_next.(w) <- next_use.(j) in
  let evict j =
    let best = ref 0 in
    for v = 1 to assoc - 1 do
      if way_next.(v) > way_next.(!best) then best := v
    done;
    way_next.(!best) <- next_use.(j);
    !best
  in
  Replay.run ~universe ~assoc ~cold { Replay.touch; fill = touch; evict }
    blocks

let hit_rate ~assoc ?cold blocks = Replay.hit_rate (replay ~assoc ?cold blocks)
