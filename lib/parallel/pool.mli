(** A supervised domain pool for fault-isolated parallel candidate
    evaluation.

    Tasks are closures over immutable design snapshots; the pool never
    lets one misbehaving task poison a run: an exception becomes a
    typed [Task_failed (Raised _)], a task past its deadline is
    cancelled cooperatively through {!poll} and becomes
    [Task_failed Deadline], and a task that stops heartbeating is
    abandoned by the watchdog as [Task_failed Stalled] — the wedged
    worker domain is written off and replaced so the pool keeps
    draining the queue.  Results come back indexed by submission
    order, so reductions over them are deterministic regardless of
    scheduling. *)

(** Why a supervised task did not produce a value. *)
type fault =
  | Raised of { exn : string; backtrace : string }
      (** the task body raised; captured, never escapes the pool *)
  | Deadline  (** cancelled cooperatively after its deadline passed *)
  | Stalled  (** the watchdog saw no heartbeat for the stall window *)

val fault_message : fault -> string

type 'a outcome = Done of 'a | Task_failed of fault

exception Cancelled
(** Raised by {!poll} inside a task whose deadline passed or whose
    token was cancelled.  The task wrapper converts it into
    [Task_failed Deadline]; it never escapes a supervised task. *)

val poll : unit -> unit
(** Heartbeat + cooperative cancellation point.  Cheap; called from
    [Engine.evaluate] and [Engine.guarded_apply] so every candidate
    evaluation is a cancellation opportunity.  A no-op outside a
    supervised task. *)

type t

val create :
  ?stall_timeout:float -> ?force:bool -> domains:int -> unit -> t option
(** [create ~domains:n ()] spawns [n] worker domains.  Returns [None]
    — the caller degrades to inline execution — when [n < 2], when
    the host has fewer than two cores (unless [force] is set: tests
    exercise real multi-domain supervision on single-core hosts with
    [~force:true]), or when domain spawning fails.  [stall_timeout]
    (default 5s) is the no-heartbeat window after which a running task
    is declared wedged. *)

val size : t -> int
(** Number of worker domains. *)

val run : t -> ?deadline:float -> (unit -> 'a) list -> 'a outcome array
(** Run every task to an outcome; slot [i] of the result is task [i]'s.
    [deadline] is absolute ([Unix.gettimeofday] scale).  Never raises
    from a task and never hangs on a wedged one: the calling domain
    acts as the watchdog while it waits. *)

val run_inline : ?deadline:float -> (unit -> 'a) list -> 'a outcome array
(** The same supervision semantics executed sequentially on the
    calling domain — the [--domains 1] and degraded paths.  Exceptions
    and deadlines are supervised identically to {!run}; stall
    detection is impossible (the watchdog would be the wedged domain). *)

val shutdown : t -> unit
(** Stop and join the healthy workers.  Workers written off by the
    watchdog are not joined (joining a wedged domain would hang);
    they exit on their own if their task ever finishes. *)

val fail_spawn_for_testing : bool ref
(** Fault injection: when set, {!create} (and watchdog replacement
    spawns) fail as if the system refused a new domain, exercising the
    graceful-degradation path deterministically. *)
