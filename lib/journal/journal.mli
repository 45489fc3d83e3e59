(** Durable write-ahead journal for flow state.

    A journal is a single append-only file of CRC-framed, typed
    records: one {!header} describing the run's inputs, then [Stage],
    [Delta] (committed change-log batches) and [Checkpoint] (full
    id-preserving design snapshots plus the counters needed to re-arm
    budgets and the semantic guard) records as the flow progresses,
    closed by a [Finish] record.

    Durability discipline: ordinary records are appended and flushed
    immediately; checkpoint records are committed by rewriting the
    whole journal to [FILE.tmp], fsync-ing and renaming over [FILE], so
    a crash anywhere leaves either the previous committed journal or
    the new one — never a torn snapshot.  {!recover} scans the longest
    valid prefix: a record with a short, missing or corrupt payload
    ends the scan and the tail is reported as truncated.  Recovery
    never refuses a journal.

    The module depends only on the netlist layer; flow-level state
    (guard counters, budget consumption, report fragments) crosses the
    boundary as plain strings, ints and floats. *)

module D = Milo_netlist.Design

(** {1 Records} *)

type header = {
  h_design : string;  (** design name *)
  h_hash : string;  (** {!design_hash} of the input design *)
  h_tech : string;  (** technology name, e.g. ["ecl"] *)
  h_required : float;  (** required delay; [infinity] if unconstrained *)
  h_arrivals : (string * float) list;  (** input-port arrival times *)
  h_lint : string;  (** lint level name *)
  h_guard : string;  (** guard policy name *)
  h_certify : bool;
  h_timeout : float option;  (** original budget limits, if any *)
  h_max_steps : int option;
  h_max_evals : int option;
  h_domains : int;
      (** domain count the run was started with; a header without the
          field (written before it was always recorded) reads as 1 *)
}

type timing = {
  t_met : bool;
  t_final : float;
  t_steps : (string * string * float * float) list;
      (** strategy, detail, delay before, delay after *)
}
(** Serialized timing outcome (mirrors [Time_opt.outcome]). *)

type checkpoint = {
  ck_stage : string;
  ck_steps : int;  (** budget consumption at the snapshot *)
  ck_evals : int;
  ck_elapsed : float;
      (** written exactly at a fixed width (its IEEE bit pattern), so a
          journal's size does not vary with timing *)
  ck_guard : int array;
      (** the six guard counters: stage checks/mismatches, rule
          checks/mismatches/skipped/certified *)
  ck_tick : int;  (** rule-guard sampling position *)
  ck_seen : string list;  (** rules the sampler has already seen *)
  ck_quarantine : (string * int * string * string) list;
      (** rule, failure count, first error, reason name *)
  ck_micro : (string * string) list;  (** critic applications so far *)
  ck_levels : (string * int * float * float) list;
      (** optimizer level report: design, applications, area
          before/after *)
  ck_timing : timing option;
  ck_design : D.t;  (** the snapshot (id-exact on recovery) *)
}

type record =
  | Header of header
  | Stage of string  (** the flow entered this stage *)
  | Delta of {
      d_stage : string;
      d_label : string option;  (** rule/strategy that committed it *)
      d_hash : string option;
          (** {!design_hash} after the commit, when the journaling
              flow could attribute the delta to a tracked design *)
      d_entries : D.entry list;
      d_attr : D.attribution;
          (** what the committer knew; each field is one optional
              payload line, so a delta written before these lines
              existed decodes with {!D.no_attribution} and [None]s *)
      d_budget : (int * int * float) option;
          (** budget consumption at the commit: steps, evals, elapsed
              (written at a fixed width, like [ck_elapsed]) *)
      d_shape : (int * int) option;
          (** component and net counts after the commit *)
    }
  | Checkpoint of checkpoint
  | Finish of {
      f_outcome : string;  (** ["complete"] or ["partial"] *)
      f_delay : float;
      f_area : float;
      f_power : float;
      f_gates : int;
      f_comps : int;
    }

exception Journal_error of string
(** A recovered journal cannot support the requested operation (no
    header survived, no committed checkpoint, unknown technology/stage
    names).  Distinct from recovery itself, which never refuses a
    journal. *)

exception Crash of int
(** The canonical simulated-kill exception for the fault harness: a
    crash-injection hook (see {!create}) raises [Crash n] after the
    [n]-th record reaches the file, and the flow treats it like a
    process death — no [Finish] record, no degradation to a partial
    outcome, the journal file left exactly as the kill found it.  The
    journal itself never raises it. *)

val design_hash : D.t -> string
(** Hex digest of a design's canonical serialized form (ids, names,
    kinds, connectivity, ports): equal iff [D.equal_structure]. *)

(** {1 Writing} *)

type writer

val create :
  ?fault:(int -> unit) ->
  ?prefix:record list ->
  string ->
  writer
(** [create path] replaces [path] (atomically, via the tmp+rename
    commit) with a journal holding [prefix] (default none), re-framed in
    the current format; the record count starts at its length.  A fresh
    run appends the {!Header} record first; a resumed run passes the
    records up to its last committed checkpoint and continues after
    them, so the file never holds less than that prefix.  Appended
    records are flushed to the OS at once; only checkpoint commits and
    {!close} fsync.  [fault] is the crash-injection hook: called
    with the running record count after each record is written;
    raising from it simulates a kill at that point. *)

val append : writer -> record -> unit
(** Append one framed record. *)

val commit : writer -> record -> unit
(** Append one framed record with the snapshot-commit discipline:
    the whole journal is rewritten to [path.tmp], fsynced and renamed
    over [path].  Used for [Checkpoint] and [Finish] records. *)

val close : writer -> unit
(** Flush, fsync and close.  The writer is unusable afterwards. *)

val path : writer -> string

(** {1 Recovery} *)

type recovered = {
  r_records : record list;  (** the longest valid prefix, in order *)
  r_truncated_bytes : int;  (** torn tail dropped by the scan *)
  r_total_bytes : int;
}

val recover : string -> recovered
(** Scan [path] for its longest valid prefix of records.  Corrupt or
    torn data only ends the scan — recovery never raises on content
    (I/O errors such as a missing file still raise [Sys_error]). *)

val header : recovered -> header option
(** The run header, when the prefix contains one. *)

val checkpoints : recovered -> checkpoint list
(** All recovered checkpoint records, in journal order. *)

val finished : recovered -> bool
(** True when the prefix ends with a [Finish] record (clean run). *)
