(* Supervised domain pool.

   Supervision protocol, per task:

   - a fresh token (deadline, heartbeat, cancel flag, abandoned flag)
     is installed in the running domain's local storage before the
     task body starts;
   - [poll] — called from the engine's evaluation hot path — stamps
     the heartbeat and raises [Cancelled] once the deadline passes or
     the coordinator set the cancel flag;
   - the wrapper converts [Cancelled] into [Task_failed Deadline] and
     any other exception into [Task_failed (Raised _)]; nothing a task
     raises ever escapes the pool;
   - the coordinator (the domain that called [run]) doubles as the
     watchdog while it waits: a running task whose heartbeat is older
     than the stall window is abandoned as [Task_failed Stalled], its
     worker is written off (a domain cannot be killed, only replaced)
     and a replacement is spawned so the queue keeps draining.  If
     replacement spawning fails too, the coordinator drains the
     remaining queue inline — [run] terminates as long as the
     coordinator itself is alive, which is the same guarantee the
     inline path offers.

   Determinism: result slot [i] always holds task [i]'s outcome, so a
   reduction over the array in index order is independent of which
   domain ran what when. *)

type fault =
  | Raised of { exn : string; backtrace : string }
  | Deadline
  | Stalled

let fault_message = function
  | Raised { exn; _ } -> "raised: " ^ exn
  | Deadline -> "deadline exceeded"
  | Stalled -> "stalled: no heartbeat within the watchdog window"

type 'a outcome = Done of 'a | Task_failed of fault

exception Cancelled

(* Raised by a job wrapper to make the worker running it exit its
   loop: the watchdog already wrote the worker off and spawned a
   replacement, so a worker that wakes up from a stall must not keep
   competing for the queue. *)
exception Retired

type token = {
  tk_deadline : float option;
  tk_heartbeat : float Atomic.t;  (* last poll; neg_infinity = not started *)
  tk_cancel : bool Atomic.t;
  tk_abandoned : bool Atomic.t;
  (* [lost] flag of the worker running this task, so the watchdog can
     write off exactly the wedged domain.  [None] while queued or when
     running on the coordinator. *)
  tk_runner : bool ref option Atomic.t;
}

let fresh_token ?deadline () =
  {
    tk_deadline = deadline;
    tk_heartbeat = Atomic.make neg_infinity;
    tk_cancel = Atomic.make false;
    tk_abandoned = Atomic.make false;
    tk_runner = Atomic.make None;
  }

let token_key : token option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let poll () =
  match Domain.DLS.get token_key with
  | None -> ()
  | Some tk ->
      let now = Unix.gettimeofday () in
      Atomic.set tk.tk_heartbeat now;
      if Atomic.get tk.tk_cancel then raise Cancelled;
      (match tk.tk_deadline with
      | Some dl when now > dl -> raise Cancelled
      | Some _ | None -> ())

(* Execute one task body under its token on the current domain.  Total:
   every exception except the genuinely unrecoverable ones becomes a
   typed fault. *)
let supervised (tk : token) (f : unit -> 'a) : 'a outcome =
  Atomic.set tk.tk_heartbeat (Unix.gettimeofday ());
  Domain.DLS.set token_key (Some tk);
  let result =
    match
      (* A task dequeued after the deadline fails without running. *)
      (match tk.tk_deadline with
      | Some dl when Unix.gettimeofday () > dl -> raise Cancelled
      | Some _ | None -> ());
      f ()
    with
    | v -> Done v
    | exception Cancelled -> Task_failed Deadline
    | exception ((Out_of_memory | Stack_overflow) as e) ->
        Domain.DLS.set token_key None;
        raise e
    | exception e ->
        Task_failed
          (Raised
             {
               exn = Printexc.to_string e;
               backtrace = Printexc.get_backtrace ();
             })
  in
  Domain.DLS.set token_key None;
  result

(* --- The pool ----------------------------------------------------------- *)

type worker = { w_domain : unit Domain.t; w_lost : bool ref }

type t = {
  p_mutex : Mutex.t;
  p_cond : Condition.t;
  p_queue : (unit -> unit) Queue.t;
  mutable p_stop : bool;
  mutable p_workers : worker list;
  p_size : int;
  p_stall : float;
}

let fail_spawn_for_testing = ref false

(* The [lost] flag of the worker domain currently executing jobs, so a
   job can register itself as running there. *)
let lost_key : bool ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let worker_loop p lost =
  Domain.DLS.set lost_key (Some lost);
  let continue = ref true in
  while !continue do
    Mutex.lock p.p_mutex;
    while Queue.is_empty p.p_queue && not p.p_stop do
      Condition.wait p.p_cond p.p_mutex
    done;
    if Queue.is_empty p.p_queue && p.p_stop then begin
      Mutex.unlock p.p_mutex;
      continue := false
    end
    else begin
      let job = Queue.pop p.p_queue in
      Mutex.unlock p.p_mutex;
      match job () with () -> () | exception Retired -> continue := false
    end
  done

let spawn_worker p =
  if !fail_spawn_for_testing then failwith "injected domain-spawn failure";
  let lost = ref false in
  { w_domain = Domain.spawn (fun () -> worker_loop p lost); w_lost = lost }

let size p = p.p_size

let shutdown p =
  Mutex.lock p.p_mutex;
  p.p_stop <- true;
  Condition.broadcast p.p_cond;
  Mutex.unlock p.p_mutex;
  List.iter
    (fun w ->
      (* A lost worker may be wedged forever: joining it would turn a
         contained task fault back into a hung flow. *)
      if not !(w.w_lost) then
        match Domain.join w.w_domain with () -> () | exception _ -> ())
    p.p_workers;
  p.p_workers <- []

let default_stall = 5.0

let create ?(stall_timeout = default_stall) ?(force = false) ~domains () =
  if domains < 2 then None
  else if (not force) && Domain.recommended_domain_count () < 2 then
    (* A single-core host gains nothing from timesliced domains; the
       caller's inline path is strictly better. *)
    None
  else begin
    let p =
      {
        p_mutex = Mutex.create ();
        p_cond = Condition.create ();
        p_queue = Queue.create ();
        p_stop = false;
        p_workers = [];
        p_size = domains;
        p_stall = stall_timeout;
      }
    in
    match
      for _ = 1 to domains do
        p.p_workers <- spawn_worker p :: p.p_workers
      done
    with
    | () -> Some p
    | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
    | exception _ ->
        (* Partial construction: tear down whatever did spawn and let
           the caller degrade. *)
        shutdown p;
        None
  end

let run_inline ?deadline tasks =
  let run_one f = supervised (fresh_token ?deadline ()) f in
  Array.map run_one (Array.of_list tasks)

let run p ?deadline tasks =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let tokens = Array.init n (fun _ -> fresh_token ?deadline ()) in
    let results = Array.make n None in
    let remaining = ref n in
    (* Result publication is mutex-protected: the watchdog and the
       worker that wakes from an abandoned task may both try to settle
       the same slot; first writer wins, and the abandoned worker
       retires itself. *)
    let settle i r =
      Mutex.lock p.p_mutex;
      let fresh = results.(i) = None in
      if fresh then begin
        results.(i) <- Some r;
        decr remaining
      end;
      Mutex.unlock p.p_mutex
    in
    let job i () =
      let tk = tokens.(i) in
      Atomic.set tk.tk_runner (Domain.DLS.get lost_key);
      let r = supervised tk tasks.(i) in
      if Atomic.get tk.tk_abandoned then raise Retired
      else settle i r
    in
    Mutex.lock p.p_mutex;
    Array.iteri (fun i _ -> Queue.add (job i) p.p_queue) tasks;
    Condition.broadcast p.p_cond;
    Mutex.unlock p.p_mutex;
    (* The coordinator is the watchdog: scan heartbeats while waiting,
       cancel stragglers past the deadline, abandon wedged tasks, and
       keep the worker population at strength. *)
    let drain_inline = ref false in
    let finished () =
      Mutex.lock p.p_mutex;
      let d = !remaining = 0 in
      Mutex.unlock p.p_mutex;
      d
    in
    while not (finished ()) do
      if !drain_inline then begin
        (* Replacement spawning failed: the pool cannot be trusted to
           drain the queue, so the coordinator does — same termination
           guarantee as the inline path. *)
        Mutex.lock p.p_mutex;
        let job =
          if Queue.is_empty p.p_queue then None else Some (Queue.pop p.p_queue)
        in
        Mutex.unlock p.p_mutex;
        match job with
        | Some j -> ( try j () with Retired -> ())
        | None -> Unix.sleepf 0.002
      end
      else Unix.sleepf 0.002;
      let now = Unix.gettimeofday () in
      for i = 0 to n - 1 do
        let tk = tokens.(i) in
        let unsettled =
          Mutex.lock p.p_mutex;
          let u = results.(i) = None in
          Mutex.unlock p.p_mutex;
          u
        in
        if unsettled then begin
          (match deadline with
          | Some dl when now > dl -> Atomic.set tk.tk_cancel true
          | Some _ | None -> ());
          let hb = Atomic.get tk.tk_heartbeat in
          if
            hb > neg_infinity
            && now -. hb > p.p_stall
            && not (Atomic.get tk.tk_abandoned)
          then begin
            Atomic.set tk.tk_abandoned true;
            (match Atomic.get tk.tk_runner with
            | Some lost -> lost := true
            | None -> ());
            (match spawn_worker p with
            | w ->
                Mutex.lock p.p_mutex;
                p.p_workers <- w :: p.p_workers;
                Mutex.unlock p.p_mutex
            | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
            | exception _ -> drain_inline := true);
            settle i (Task_failed Stalled)
          end
        end
      done
    done;
    Array.map (function Some r -> r | None -> assert false) results
  end
