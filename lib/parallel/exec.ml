(* Execution plans for the optimizer's fan-out sites.

   [Inline] and [Pooled] are the two faces of one semantics: the same
   task lists, the same deterministic index-ordered merge, the same
   supervision (exception capture, deadline cancellation) — only the
   scheduling differs.  That is what makes [--domains 1] and
   [--domains N] bit-identical, and what makes graceful degradation (a
   pool that failed to construct falls back to [Inline]) free of
   observable divergence. *)

type t =
  | Inline of { deadline : float option }
  | Pooled of { pool : Pool.t; deadline : float option }

let inline ?deadline () = Inline { deadline }
let pooled ?deadline pool = Pooled { pool; deadline }

(* Deterministic indexed map: slot [i] of the result is task [i]'s
   outcome, whatever domain ran it. *)
let map t (tasks : (unit -> 'a) list) : 'a Pool.outcome array =
  match t with
  | Inline { deadline } -> Pool.run_inline ?deadline tasks
  | Pooled { pool; deadline } -> Pool.run pool ?deadline tasks
