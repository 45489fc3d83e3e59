(* Search budgets: wall-clock deadline + step/evaluation ceilings, with
   sticky exhaustion so a report can say *why* a pass stopped early. *)

type t = {
  deadline : float option;  (* absolute, Unix.gettimeofday *)
  max_steps : int option;
  max_evals : int option;
  started : float;
  mutable steps : int;
  mutable evals : int;
  mutable flagged : bool;
}

type status = {
  steps_used : int;
  evals_used : int;
  elapsed : float;
  budget_exhausted : bool;
}

let make ?timeout ?max_steps ?max_evals () =
  let now = Unix.gettimeofday () in
  {
    deadline = Option.map (fun s -> now +. s) timeout;
    max_steps;
    max_evals;
    started = now;
    steps = 0;
    evals = 0;
    flagged = false;
  }

let unlimited () = make ()

(* Re-arm a budget from recorded consumption (journal resume): the
   counters start at the recorded values and the deadline is shortened
   by the time the interrupted run already spent, so the resumed run
   gets exactly the remainder, not a fresh allowance. *)
let resume ?timeout ?max_steps ?max_evals ~steps ~evals ~elapsed () =
  let now = Unix.gettimeofday () in
  {
    deadline = Option.map (fun s -> now +. s -. elapsed) timeout;
    max_steps;
    max_evals;
    started = now -. elapsed;
    steps;
    evals;
    flagged = false;
  }

let limits t =
  (Option.map (fun d -> d -. t.started) t.deadline, t.max_steps, t.max_evals)

(* The absolute deadline, for the parallel runtime: supervised tasks
   inherit it so a straggler is cancelled at the same wall-clock
   instant the budget itself would flag exhaustion. *)
let deadline_time t = t.deadline

let step t = t.steps <- t.steps + 1
let eval t = t.evals <- t.evals + 1

let over limit used = match limit with Some l -> used >= l | None -> false

let exhausted t =
  if t.flagged then true
  else begin
    let hit =
      over t.max_steps t.steps || over t.max_evals t.evals
      || match t.deadline with
         | Some d -> Unix.gettimeofday () >= d
         | None -> false
    in
    if hit then t.flagged <- true;
    hit
  end

let status t =
  {
    steps_used = t.steps;
    evals_used = t.evals;
    elapsed = Unix.gettimeofday () -. t.started;
    budget_exhausted = t.flagged;
  }

let pp_status ppf s =
  Format.fprintf ppf "%d steps, %d evals, %.2fs%s" s.steps_used s.evals_used
    s.elapsed
    (if s.budget_exhausted then " (budget exhausted)" else "")
