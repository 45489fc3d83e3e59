(* Static rule certification.

   The engine's dynamic rule guard re-proves every sampled application
   by cone re-simulation.  Most rules are sound in every context, so
   the proof is hoisted offline: apply the rule at every site it
   matches over a small witness corpus and compare functions
   before/after with the same cone check ([Cone.sweep] then
   [Cone.recheck]) — exhaustively over the cone leaves where the cones
   are small, over seeded random vectors where they are larger, by
   whole-design equivalence checking where neither applies.
   The result is a signed, cached certificate per (rule, technology);
   Certified rules skip the dynamic check entirely
   (Engine.set_certified), leaving the flow's stage-boundary guards as
   the backstop. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule
module Cone = Milo_rules.Cone
module Macro = Milo_library.Macro
module Technology = Milo_library.Technology
module Gate_comp = Milo_compilers.Gate_comp
module Table_map = Milo_techmap.Table_map
module Guard = Milo_guard.Guard
module Simulator = Milo_sim.Simulator

type verdict = Certified | Probabilistic | Uncertified | Refused

let verdict_name = function
  | Certified -> "certified"
  | Probabilistic -> "probabilistic"
  | Uncertified -> "uncertified"
  | Refused -> "refused"

type certificate = {
  cert_rule : string;
  cert_class : string;
  cert_tech : string;
  cert_verdict : verdict;
  cert_sites : int;
  cert_exhaustive : int;
  cert_random : int;
  cert_detail : string;
  cert_digest : string;
}

let exhaustive_leaves = 12
let random_leaves = 16
let random_vectors = 128
let seed = 0x5eed

(* Whole-design differential checking is skipped past this size; the
   witness corpus is far below it. *)
let max_diff_comps = 150

(* --- Signing ------------------------------------------------------------ *)

let signing_key = "milo-absint-cert-v1"

let payload c =
  String.concat "\x00"
    [
      signing_key;
      c.cert_rule;
      c.cert_class;
      c.cert_tech;
      verdict_name c.cert_verdict;
      string_of_int c.cert_sites;
      string_of_int c.cert_exhaustive;
      string_of_int c.cert_random;
      c.cert_detail;
    ]

let sign c = { c with cert_digest = Digest.to_hex (Digest.string (payload c)) }
let valid c = c.cert_digest = Digest.to_hex (Digest.string (payload c))

(* --- Cache -------------------------------------------------------------- *)

type cache = (string * string, certificate) Hashtbl.t

let create_cache () : cache = Hashtbl.create 64
let shared_cache : cache = create_cache ()

(* [shared_cache] is process-wide, and flows on different domains fill
   it while it is cold: an unsynchronized lookup racing an insert's
   resize is undefined behaviour, so every cache access holds this lock
   (as [Hashcons.kind_mutex] does for the kind table).  Certification
   itself runs unlocked; two domains missing on the same key compute
   the same signed certificate, so the later insert is harmless. *)
let cache_mutex = Mutex.create ()
let locked f = Mutex.protect cache_mutex f
let reset_cache (c : cache) = locked (fun () -> Hashtbl.reset c)

let lookup ?(cache = shared_cache) ~tech rule =
  match locked (fun () -> Hashtbl.find_opt cache (rule, tech)) with
  | Some c when valid c -> Some c
  | Some _ | None -> None

(* --- Cone snapshots ------------------------------------------------------ *)

type witness = Ex | Rand

(* Pre-apply truth vectors of a net over its cone leaves: all 2^n
   assignments up to [exhaustive_leaves], seeded random vectors up to
   [random_leaves], nothing past that. *)
let snapshot ctx rng nid =
  match Cone.extract ctx ~max_leaves:random_leaves nid with
  | Some cone when cone.Cone.comps <> [] -> (
      let leaves = cone.Cone.leaves in
      let n = List.length leaves in
      let kind, vectors =
        if n <= exhaustive_leaves then (Ex, Cone.exhaustive leaves)
        else
          ( Rand,
            Cone.of_masks leaves
              (List.init random_vectors (fun _ ->
                   Random.State.int rng (1 lsl min n 30))) )
      in
      match Cone.sweep ctx vectors nid with
      | pre -> Some (kind, nid, vectors, pre)
      | exception _ -> None)
  | Some _ | None -> None

(* --- Per-site verification ---------------------------------------------- *)

type site_result =
  | Site_exhaustive
  | Site_random
  | Site_nothing  (** the rule did not apply, or nothing was verifiable *)
  | Site_mismatch of string

let is_seq_kind ctx (k : T.kind) =
  match k with
  | T.Instance _ -> true
  | T.Macro m -> (
      match R.find_macro ctx m with
      | Some mac -> Macro.is_sequential mac
      | None -> true)
  | k -> T.is_sequential_kind k

(* Compare the snapshots against the post-apply design.  Nets that no
   longer exist are ignored (their consumers were rerouted; the
   whole-design tier and the stage guard cover them). *)
let compare_snapshots ctx snaps =
  let verified_ex = ref 0 and verified_rand = ref 0 and skipped = ref 0 in
  let mismatch = ref None in
  List.iter
    (fun (kind, nid, vectors, pre) ->
      if !mismatch = None && D.net_opt ctx.R.design nid <> None then
        match Cone.recheck ctx vectors pre nid with
        | None ->
            incr (match kind with Ex -> verified_ex | Rand -> verified_rand)
        | Some _ -> mismatch := Some (Printf.sprintf "net %d diverges" nid)
        | exception Cone.Unverifiable -> incr skipped)
    snaps;
  (!verified_ex, !verified_rand, !skipped, !mismatch)

let whole_design_check ctx pre_copy =
  let env = { Simulator.find_macro = (fun n -> Technology.find ctx.R.tech n) } in
  let is_seq = is_seq_kind ctx in
  match Guard.check ~is_seq env pre_copy env ctx.R.design with
  | None ->
      let seq =
        List.exists (fun (c : D.comp) -> is_seq c.D.kind) (D.comps pre_copy)
      in
      let inputs =
        List.length
          (List.filter (fun (_, dir, _) -> dir = T.Input) (D.ports pre_copy))
      in
      if (not seq) && inputs <= exhaustive_leaves then Site_exhaustive
      else Site_random
  | Some div -> Site_mismatch (Guard.describe div)
  | exception _ -> Site_nothing

let check_site ctx rng (rule : R.t) site =
  let outs = Cone.site_outputs ctx site in
  let snaps = List.filter_map (snapshot ctx rng) outs in
  let pre_copy =
    if D.num_comps ctx.R.design <= max_diff_comps then
      Some (D.copy ctx.R.design)
    else None
  in
  let log = D.new_log () in
  match rule.R.apply ctx site log with
  | exception _ ->
      D.undo ctx.R.design log;
      Site_nothing
  | false ->
      D.undo ctx.R.design log;
      Site_nothing
  | true ->
      let ex, rand, skipped, mismatch = compare_snapshots ctx snaps in
      let result =
        match mismatch with
        | Some d -> Site_mismatch d
        | None ->
            if ex > 0 && rand = 0 && skipped = 0 then Site_exhaustive
            else if ex + rand > 0 then Site_random
            else (
              match pre_copy with
              | Some pre -> whole_design_check ctx pre
              | None -> Site_nothing)
      in
      D.undo ctx.R.design log;
      result

(* --- The witness corpus ------------------------------------------------- *)

(* Generic micro-free designs covering the structural patterns the
   critic rules match: built from generic macros, then mapped onto the
   target like any design.  Kept deliberately small so cone
   enumeration is exhaustive almost everywhere. *)

let comb_design () =
  let d = D.create "cert_comb" in
  let set = Gate_comp.generic_set (Milo_library.Generic.get ()) in
  let inp n = D.add_port d n T.Input in
  let out n net = ignore (D.add_port ~net d n T.Output) in
  let g fn ns = Gate_comp.add_gate d set fn ns in
  let a = inp "A" and b = inp "B" and c = inp "C" in
  let e = inp "E" and f = inp "F" in
  let vss = Gate_comp.add_const d set T.Vss in
  let vdd = Gate_comp.add_const d set T.Vdd in
  (* invert-root / cone-resynth: a gate feeding a lone inverter *)
  out "Y0" (g T.Inv [ g T.And [ a; b ] ]);
  (* gate-merge: nested associative gates, inner on fanout 1 *)
  out "Y1" (g T.And [ g T.And [ a; b ]; c ]);
  (* isolate-input: an associative gate of arity 3 *)
  out "Y2" (g T.Or [ a; b; c ]);
  (* double-inverter: the pair must sit below another gate — the rule
     refuses port-bound outputs *)
  out "Y3" (g T.And [ g T.Inv [ g T.Inv [ e ] ]; a ]);
  (* buffer-elim *)
  out "Y4" (g T.And [ g T.Buf [ f ]; a ]);
  (* constant-prop: a gate with a constant input *)
  out "Y5" (g T.And [ c; vss ]);
  (* share-duplicate: two identical gates over the same nets *)
  out "Y6" (g T.Or [ g T.And [ e; f ]; g T.And [ e; f ] ]);
  (* duplicate-driver: one gate feeding two consumers *)
  let x = g T.Xor [ a; b ] in
  out "Y7" (g T.And [ x; c ]);
  out "Y8" (g T.Or [ x; e ]);
  (* fanout-buffer: a net loaded past the fanout limit *)
  let h = g T.Or [ a; f ] in
  let loads = List.init 10 (fun _ -> g T.And [ h; b ]) in
  out "Y9" (Gate_comp.tree d set T.Or loads);
  (* dead-logic: an unconsumed gate *)
  ignore (g T.Nor [ a; b ]);
  (* masked cone: OR with a constant-one input hides its other leg *)
  out "YA" (g T.Or [ g T.Xor [ e; f ]; vdd ]);
  (* ornor-share: OR and NOR over the same inputs *)
  out "YB" (g T.Or [ b; c ]);
  out "YC" (g T.Nor [ b; c ]);
  (* const-select-mux: a mux whose select is tied *)
  let mux = D.add_comp d ~name:"cmux" (T.Macro "MUX2") in
  D.connect d mux "D0" a;
  D.connect d mux "D1" b;
  D.connect d mux "S0" vdd;
  let my = D.new_net d in
  D.connect d mux "Y" my;
  (* below a gate, not a port: the rule refuses port-bound outputs *)
  out "YD" (g T.And [ my; c ]);
  d

let seq_design () =
  let d = D.create "cert_seq" in
  let inp n = D.add_port d n T.Input in
  let d0 = inp "D0" and d1 = inp "D1" and s = inp "S" and clk = inp "CLK" in
  let mux = D.add_comp d ~name:"mux" (T.Macro "MUX2") in
  D.connect d mux "D0" d0;
  D.connect d mux "D1" d1;
  D.connect d mux "S0" s;
  let my = D.new_net d in
  D.connect d mux "Y" my;
  let ff = D.add_comp d ~name:"ff" (T.Macro "DFF") in
  D.connect d ff "D" my;
  D.connect d ff "CLK" clk;
  D.connect d ff "Q" (D.add_port d "Q" T.Output);
  d

let muxff_design () =
  let d = D.create "cert_muxff" in
  let inp n = D.add_port d n T.Input in
  let e0 = inp "E0" and e1 = inp "E1" and s0 = inp "S0" in
  let f0 = inp "F0" and sm = inp "SM" and clk = inp "CLK" in
  let mux = D.add_comp d ~name:"mux" (T.Macro "MUX2") in
  D.connect d mux "D0" e0;
  D.connect d mux "D1" e1;
  D.connect d mux "S0" s0;
  let my = D.new_net d in
  D.connect d mux "Y" my;
  let mf = D.add_comp d ~name:"mf" (T.Macro "MUXFF2") in
  D.connect d mf "D0" my;
  D.connect d mf "D1" f0;
  D.connect d mf "S0" sm;
  D.connect d mf "CLK" clk;
  D.connect d mf "Q" (D.add_port d "Q" T.Output);
  d

let adder_design () =
  let d = D.create "cert_adder" in
  let inp n = D.add_port d n T.Input in
  let a = List.init 4 (fun i -> inp (Printf.sprintf "A%d" i)) in
  let b = List.init 4 (fun i -> inp (Printf.sprintf "B%d" i)) in
  let ci = inp "CI" in
  let adder name kind sum cout =
    let c = D.add_comp d ~name (T.Macro kind) in
    List.iteri (fun i n -> D.connect d c (Printf.sprintf "A%d" i) n) a;
    List.iteri (fun i n -> D.connect d c (Printf.sprintf "B%d" i) n) b;
    D.connect d c "CIN" ci;
    List.iteri
      (fun i _ ->
        D.connect d c
          (Printf.sprintf "S%d" i)
          (D.add_port d (Printf.sprintf "%s%d" sum i) T.Output))
      a;
    D.connect d c "COUT" (D.add_port d cout T.Output)
  in
  adder "rip" "ADD4" "S" "CO";
  adder "cla" "ADD4CLA" "T" "TCO";
  d

(* A component already at the high-power level, when the technology
   offers one — the standard-power-swap rule's pattern lives only in
   the target namespace. *)
let power_design (target : Table_map.target) =
  let tech = target.Table_map.tech in
  match
    List.find_opt
      (fun (m : Macro.t) ->
        m.Macro.power_level = Macro.High
        && (not (Macro.is_sequential m))
        && List.length m.Macro.outputs = 1
        && List.length m.Macro.inputs <= 4
        && Technology.standard_variant tech m.Macro.mname <> None)
      (Technology.all tech)
  with
  | None -> []
  | Some m ->
      let d = D.create "cert_power" in
      let c = D.add_comp d ~name:"hp" (T.Macro m.Macro.mname) in
      List.iteri
        (fun i p ->
          D.connect d c p (D.add_port d (Printf.sprintf "I%d" i) T.Input))
        m.Macro.inputs;
      D.connect d c (List.hd m.Macro.outputs) (D.add_port d "O" T.Output);
      [ d ]

let default_corpus target =
  List.filter_map
    (fun mk ->
      try Some (Table_map.map_design target (mk ())) with _ -> None)
    [ comb_design; seq_design; muxff_design; adder_design ]
  @ power_design target

(* --- Certification ------------------------------------------------------ *)

(* Sites exercised per rule, across the whole corpus. *)
let max_sites = 12

let certify_rule ~tech_name ~contexts (rule : R.t) =
  let rng =
    Random.State.make [| seed; Hashtbl.hash rule.R.rule_name |]
  in
  let sites = ref 0 and ex = ref 0 and rand = ref 0 in
  let detail = ref "" in
  let refused = ref false in
  List.iter
    (fun ctx ->
      if not !refused then
        let found = try rule.R.find ctx with _ -> [] in
        List.iteri
          (fun i site ->
            if (not !refused) && i < 4 && !sites < max_sites then begin
              match check_site ctx rng rule site with
              | Site_nothing -> ()
              | Site_exhaustive ->
                  incr sites;
                  incr ex
              | Site_random ->
                  incr sites;
                  incr rand
              | Site_mismatch d ->
                  incr sites;
                  refused := true;
                  detail := Printf.sprintf "%s: %s" site.R.descr d
            end)
          found)
    contexts;
  let verdict =
    if !refused then Refused
    else if !ex > 0 && !rand = 0 then Certified
    else if !ex + !rand > 0 then Probabilistic
    else Uncertified
  in
  sign
    {
      cert_rule = rule.R.rule_name;
      cert_class = R.class_name rule.R.rule_class;
      cert_tech = tech_name;
      cert_verdict = verdict;
      cert_sites = !sites;
      cert_exhaustive = !ex;
      cert_random = !rand;
      cert_detail = !detail;
      cert_digest = "";
    }

let certify_rules ?(cache = shared_cache) (target : Table_map.target) rules =
  let tech_name = Technology.name target.Table_map.tech in
  let contexts =
    lazy
      (List.map
         (R.make_context target.Table_map.tech target.Table_map.set)
         (default_corpus target))
  in
  List.map
    (fun (rule : R.t) ->
      match lookup ~cache ~tech:tech_name rule.R.rule_name with
      | Some c -> c
      | None ->
          let c =
            certify_rule ~tech_name ~contexts:(Lazy.force contexts) rule
          in
          locked (fun () -> Hashtbl.replace cache (rule.R.rule_name, tech_name) c);
          c)
    rules

let certified_names certs =
  List.filter_map
    (fun c -> if c.cert_verdict = Certified then Some c.cert_rule else None)
    certs

(* --- Rendering ---------------------------------------------------------- *)

let cert_to_json c =
  let esc = Milo_trace.Export.json_escape in
  Printf.sprintf
    "{\"rule\": \"%s\", \"class\": \"%s\", \"tech\": \"%s\", \"verdict\": \
     \"%s\", \"sites\": %d, \"exhaustive\": %d, \"random\": %d, \"detail\": \
     \"%s\", \"digest\": \"%s\"}"
    (esc c.cert_rule) (esc c.cert_class) (esc c.cert_tech)
    (verdict_name c.cert_verdict)
    c.cert_sites c.cert_exhaustive c.cert_random (esc c.cert_detail)
    (esc c.cert_digest)

let pp_certificate ppf c =
  Format.fprintf ppf "%-20s %-8s %-13s sites %2d (%d exhaustive, %d random)%s"
    c.cert_rule c.cert_class
    (verdict_name c.cert_verdict)
    c.cert_sites c.cert_exhaustive c.cert_random
    (if c.cert_detail = "" then "" else " — " ^ c.cert_detail)
