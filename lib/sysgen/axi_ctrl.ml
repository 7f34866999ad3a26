type state = Idle | Start_pending | Running

type t = {
  k_ : int;
  batch_ : int;
  mutable st : state;
  mutable batch_index : int;
  done_seen : bool array;
  mutable steps : int;
}

type outputs = { ap_start_broadcast : bool; irq : bool; batch_index : int }

exception Protocol_error of string

let create ~k ~batch =
  if k < 1 then raise (Protocol_error "k must be >= 1");
  if batch < 1 then raise (Protocol_error "batch must be >= 1");
  {
    k_ = k;
    batch_ = batch;
    st = Idle;
    batch_index = 0;
    done_seen = Array.make k false;
    steps = 0;
  }

let k t = t.k_
let batch t = t.batch_
let busy t = t.st <> Idle
let steps t = t.steps

let write_start t =
  if t.st <> Idle then raise (Protocol_error "start written while busy");
  t.st <- Start_pending

let step t ~ready ~done_ =
  if Array.length ready <> t.k_ || Array.length done_ <> t.k_ then
    raise (Protocol_error "status array width mismatch");
  t.steps <- t.steps + 1;
  match t.st with
  | Idle -> { ap_start_broadcast = false; irq = false; batch_index = t.batch_index }
  | Start_pending ->
      if Array.for_all Fun.id ready then begin
        t.st <- Running;
        Array.fill t.done_seen 0 t.k_ false;
        { ap_start_broadcast = true; irq = false; batch_index = t.batch_index }
      end
      else { ap_start_broadcast = false; irq = false; batch_index = t.batch_index }
  | Running ->
      let all_done = ref true in
      for i = 0 to t.k_ - 1 do
        if done_.(i) then t.done_seen.(i) <- true
        else if not t.done_seen.(i) then all_done := false
      done;
      if !all_done then begin
        t.st <- Idle;
        let index = t.batch_index in
        t.batch_index <- (t.batch_index + 1) mod t.batch_;
        { ap_start_broadcast = false; irq = true; batch_index = index }
      end
      else { ap_start_broadcast = false; irq = false; batch_index = t.batch_index }

(* The round is stepped per event, not per cycle. A step that emits
   nothing and leaves the state (st, batch_index, done_seen) as it found
   it is a fixpoint: its inputs, the done lines, stay the same until the
   smallest positive remaining latency [h] runs out, so the next [h - 1]
   cycles replay it exactly and are counted without being stepped. Each
   step is therefore either the start, a done line flipping, or such a
   fixpoint: at most 2d + 2 steps for d distinct positive latencies. *)
let run_round t ~latencies =
  if Array.length latencies <> t.k_ then
    raise (Protocol_error "latency array width mismatch");
  write_start t;
  let ready = Array.make t.k_ true in
  let remaining = Array.copy latencies in
  let done_ = Array.make t.k_ false in
  let seen = Array.make t.k_ false in
  let started = ref false in
  let cycles = ref 0 in
  let finished = ref false in
  while not !finished do
    incr cycles;
    if !cycles > 100_000_000 then raise (Protocol_error "controller timeout");
    for i = 0 to t.k_ - 1 do
      done_.(i) <- !started && remaining.(i) <= 0
    done;
    let st = t.st and index = t.batch_index in
    Array.blit t.done_seen 0 seen 0 t.k_;
    let out = step t ~ready ~done_ in
    if out.ap_start_broadcast then started := true
    else if !started then begin
      let fixpoint =
        (not out.irq) && t.st = st && t.batch_index = index && t.done_seen = seen
      in
      (* this cycle, plus the [h - 1] replays of a fixpoint *)
      let h = ref 1 in
      if fixpoint then begin
        h := max_int;
        for i = 0 to t.k_ - 1 do
          let r = remaining.(i) in
          if r > 0 && r < !h then h := r
        done;
        cycles := !cycles + !h - 1
      end;
      for i = 0 to t.k_ - 1 do
        let r = remaining.(i) in
        if r > 0 then remaining.(i) <- r - !h
      done
    end;
    if out.irq then finished := true
  done;
  !cycles
