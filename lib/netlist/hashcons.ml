(* Hash-consed structural identity.

   Three layers, each trading a traversal for a table lookup:

   - component kinds are interned: the canonical [Writer.kind_spec]
     string (and a compact session-local id) is computed once per
     distinct kind value, not once per component per traversal;
   - a design's structural digest (MD5 over a canonical serialization
     of name, ports, nets, components and connections) is memoized per
     physical design and invalidated by [Design.generation], so
     repeated hashing of an unchanged design — the journal's
     checkpoint discipline, replay verification — is O(1);
   - structural equality compares digests instead of traversing both
     designs.

   The digest itself is built from interned spec *strings*, never from
   session-local ids, so it is stable across processes: a journal
   written by one run hashes identically when replayed by another.

   The memo table holds its designs weakly (ephemeron keys): caching a
   digest never extends a design's lifetime. *)

module D = Design

(* --- Kind interning ---------------------------------------------------- *)

(* Kinds are pure immutable data, so polymorphic hashing/equality are
   exact.  The table is global and append-only: the population of
   distinct kinds in a session is small (bounded by the libraries in
   play plus micro shapes). *)
let kind_table : (Types.kind, int * string) Hashtbl.t = Hashtbl.create 256
let next_kind_id = ref 0

(* The table is shared process-wide and parallel oracle workers may
   intern kinds their scratch rewrites introduce, so every access is
   serialized: an unsynchronized find racing a resize is undefined
   behaviour.  Contention is negligible — the population of distinct
   kinds is small and the hit path is one lookup. *)
let kind_mutex = Mutex.create ()

let intern kind =
  Mutex.lock kind_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock kind_mutex)
    (fun () ->
      match Hashtbl.find_opt kind_table kind with
      | Some e -> e
      | None ->
          let id = !next_kind_id in
          incr next_kind_id;
          let e = (id, Writer.kind_spec kind) in
          Hashtbl.replace kind_table kind e;
          e)

let kind_id kind = fst (intern kind)
let kind_spec kind = snd (intern kind)

(* --- Design digests ---------------------------------------------------- *)

let compute_digest d =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "d %s\n" (D.name d);
  List.iter
    (fun (p, dir, nid) ->
      pf "p %s %c %d\n" p (match dir with Types.Input -> 'i' | Types.Output -> 'o') nid)
    (D.ports d);
  List.iter (fun (n : D.net) -> pf "n %d %s\n" n.D.nid n.D.nname) (D.nets d);
  List.iter
    (fun (c : D.comp) ->
      pf "c %d %s %s\n" c.D.id c.D.cname (kind_spec c.D.kind);
      List.iter (fun (pin, nid) -> pf "j %s %d\n" pin nid)
        (D.connections d c.D.id))
    (D.comps d);
  Digest.to_hex (Digest.string (Buffer.contents buf))

module Cache = Ephemeron.K1.Make (struct
  type t = D.t

  let equal = ( == )
  let hash d = Hashtbl.hash (D.name d)
end)

(* Concurrent flows on several domains (journaled or recording
   provenance) hash their designs through this one table, so lookups
   and inserts are serialized; the digest itself is computed outside
   the lock. *)
let digest_cache : (int * string) Cache.t = Cache.create 64
let digest_mutex = Mutex.create ()

let design_digest d =
  let g = D.generation d in
  match Mutex.protect digest_mutex (fun () -> Cache.find_opt digest_cache d) with
  | Some (g', dg) when g' = g -> dg
  | Some _ | None ->
      (* The generation was read before serializing: if a concurrent
         mutation raced the traversal the cached entry is already
         stale and will miss next time. *)
      let dg = compute_digest d in
      Mutex.protect digest_mutex (fun () -> Cache.replace digest_cache d (g, dg));
      dg

let equal_structure a b = a == b || design_digest a = design_digest b
