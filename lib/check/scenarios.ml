module V = Cn_runtime.Validator
module RT = Cn_runtime.Network_runtime
module Sequence = Cn_sequence.Sequence
module Counting = Cn_core.Counting

(* The shipped network runtime over instrumented atomics: every balancer
   crossing, CAS retry and exit bump is a scheduler decision point. *)
module Net = RT.Make (Instrumented)

(* The runtime the service drives: [Net] plus the evidence the oracles
   read — tokens and antitokens counted when a traversal STARTS (plain
   fields are fine on one OS thread, and the start/exit gap is exactly
   what lets the conservation check witness an unquiesced validation),
   and every quiescent validation with its verdict. *)
module Rt = struct
  type t = {
    net : Net.t;
    mutable tokens : int;
    mutable antitokens : int;
    mutable validations : (int array * bool) list; (* newest first *)
  }

  type buffer = RT.buffer

  let compile ?mode topo = { net = Net.compile ?mode topo; tokens = 0; antitokens = 0; validations = [] }
  let net t = t.net
  let input_width t = Net.input_width t.net
  let exit_distribution t = Net.exit_distribution t.net
  let buffer ~capacity = RT.buffer ~capacity ()
  let started t n = t.tokens <- t.tokens + n
  let started_anti t n = t.antitokens <- t.antitokens + n

  let traverse t ~wire =
    started t 1;
    Net.traverse t.net ~wire

  let traverse_decrement t ~wire =
    started_anti t 1;
    Net.traverse_decrement t.net ~wire

  let traverse_batch t ~wire ~n ~f =
    started t n;
    Net.traverse_batch t.net ~wire ~n ~f

  let traverse_batch_decrement t ~wire ~n ~f =
    started_anti t n;
    Net.traverse_batch_decrement t.net ~wire ~n ~f

  let traverse_batch_pipelined t buf ~wire ~n ~f =
    started t n;
    Net.traverse_batch_pipelined t.net buf ~wire ~n ~f

  let traverse_batch_pipelined_decrement t buf ~wire ~n ~f =
    started_anti t n;
    Net.traverse_batch_pipelined_decrement t.net buf ~wire ~n ~f

  (* Reads the exit cells through instrumented atomics, so the
     validation itself is schedulable, like the real validator. *)
  let quiescent t =
    let dist = exit_distribution t in
    let expected = t.tokens - t.antitokens in
    let report =
      {
        V.subject = "checked network quiescence";
        checks =
          [
            { V.name = "step-property"; ok = Sequence.is_step dist; detail = Sequence.to_string dist };
            {
              V.name = "conservation";
              ok = Sequence.sum dist = expected;
              detail = Printf.sprintf "exited %d, tokens - antitokens = %d" (Sequence.sum dist) expected;
            };
          ];
      }
    in
    t.validations <- (dist, V.passed report) :: t.validations;
    report

  let validations t = List.rev t.validations
  let last_validation t = match t.validations with [] -> None | x :: _ -> Some x
end

(* The production protocol body over instrumented atomics and the
   shipped runtime: what the explorer actually exercises. *)
module Svc = Cn_service.Service_core.Make (Instrumented) (Rt)

(* Per-run recording.  One OS thread, so plain refs are safe; results
   are (operation, outcome) pairs in completion order. *)
type outcome = Val of int | Rejected | Refused

let op_outcome = function
  | Ok v -> Val v
  | Error Svc.Overloaded -> Rejected
  | Error Svc.Closed -> Refused

type run = {
  rt : Rt.t;
  svc : Svc.t;
  results : (Svc.op * outcome) list ref;
  shutdowns : int ref; (* completed shutdown calls *)
  distinct_incs : bool; (* elim off, inc-only: values must be distinct *)
}

let worker run sess op () =
  let r =
    match op with Svc.Inc -> Svc.increment sess | Svc.Dec -> Svc.decrement sess
  in
  run.results := (op, op_outcome r) :: !(run.results)

let drainer run () = ignore (Svc.drain run.svc)

let stopper run () =
  ignore (Svc.shutdown run.svc);
  incr run.shutdowns

(* The shared oracle, run on the final state with no fiber scheduled. *)
let check run () =
  let dist = Rt.exit_distribution run.rt in
  let oks op =
    List.length
      (List.filter
         (fun (o, r) -> o = op && match r with Val _ -> true | _ -> false)
         !(run.results))
  in
  let fail fmt = Printf.ksprintf Option.some fmt in
  if !(run.shutdowns) > 0 && Svc.lifecycle run.svc <> `Stopped then
    fail "shutdown returned but the service is not stopped (resurrected)"
  else if
    List.exists (fun (_, passed) -> not passed) (Rt.validations run.rt)
  then fail "a drain/shutdown validation observed a non-quiescent network"
  else
    match (Svc.lifecycle run.svc, Rt.last_validation run.rt) with
    | `Stopped, Some (seen, _) when seen <> dist ->
        fail "network traversed after the validated quiescence point (%s -> %s)"
          (Sequence.to_string seen) (Sequence.to_string dist)
    | `Stopped, None -> fail "service stopped without a quiescent validation"
    | _ ->
        let expected = oks Svc.Inc - oks Svc.Dec in
        if Sequence.sum dist <> expected then
          fail "token conservation: %d exits vs %d ok(inc) - ok(dec)"
            (Sequence.sum dist) expected
        else if not (Sequence.is_step dist) then
          fail "final distribution is not a step: %s" (Sequence.to_string dist)
        else if run.distinct_incs then begin
          let vals =
            List.filter_map
              (fun (o, r) ->
                match (o, r) with Svc.Inc, Val v -> Some v | _ -> None)
              !(run.results)
          in
          let sorted = List.sort_uniq compare vals in
          if List.length sorted <> List.length vals then
            fail "duplicate increment values without elimination: %s"
              (String.concat "," (List.map string_of_int vals))
          else None
        end
        else None

let make_run ?mode ?(elim = false) ?(pipeline = false) ?(queue = 2) ~w ~t ~distinct_incs () =
  let rt = Rt.compile ?mode (Counting.network ~w ~t) in
  let svc = Svc.make ~max_batch:4 ~queue ~elim ~pipeline ~validate:V.Off rt in
  { rt; svc; results = ref []; shutdowns = ref 0; distinct_incs }

let drain_vs_shutdown () =
  let run = make_run ~w:2 ~t:2 ~distinct_incs:true () in
  let s0 = Svc.session ~wire:0 run.svc in
  {
    Engine.name = "drain-vs-shutdown";
    fibers = [| worker run s0 Svc.Inc; drainer run; stopper run |];
    finish = check run;
  }

let late_admission () =
  let run = make_run ~w:2 ~t:2 ~distinct_incs:true () in
  let s0 = Svc.session ~wire:0 run.svc in
  let s1 = Svc.session ~wire:0 run.svc in
  {
    Engine.name = "late-admission";
    fibers = [| worker run s0 Svc.Inc; worker run s1 Svc.Inc; stopper run |];
    finish = check run;
  }

let mixed_ops_drain () =
  let run = make_run ~elim:true ~w:2 ~t:2 ~distinct_incs:false () in
  let s0 = Svc.session ~wire:0 run.svc in
  let s1 = Svc.session ~wire:0 run.svc in
  {
    Engine.name = "mixed-ops-drain";
    fibers = [| worker run s0 Svc.Inc; worker run s1 Svc.Dec; drainer run |];
    finish = check run;
  }

let submit_await_shutdown () =
  let run = make_run ~w:2 ~t:2 ~distinct_incs:true () in
  let s0 = Svc.session ~wire:0 run.svc in
  let s1 = Svc.session ~wire:1 run.svc in
  let async_worker () =
    match Svc.submit s0 Svc.Inc with
    | Error e -> run.results := (Svc.Inc, op_outcome (Error e)) :: !(run.results)
    | Ok () ->
        let v = Svc.await s0 in
        run.results := (Svc.Inc, Val v) :: !(run.results)
  in
  {
    Engine.name = "submit-await-shutdown";
    fibers = [| async_worker; worker run s1 Svc.Inc; stopper run |];
    finish = check run;
  }

let c44_shutdown () =
  let run = make_run ~w:4 ~t:4 ~distinct_incs:true () in
  let s0 = Svc.session ~wire:0 run.svc in
  let s1 = Svc.session ~wire:1 run.svc in
  let s2 = Svc.session ~wire:2 run.svc in
  {
    Engine.name = "c44-shutdown";
    fibers =
      [|
        worker run s0 Svc.Inc;
        worker run s1 Svc.Inc;
        worker run s2 Svc.Inc;
        stopper run;
      |];
    finish = check run;
  }

let cas_drain ?(observe = ignore) () =
  let run = make_run ~mode:RT.Cas ~w:2 ~t:2 ~distinct_incs:true () in
  let s0 = Svc.session ~wire:0 run.svc in
  let s1 = Svc.session ~wire:1 run.svc in
  {
    Engine.name = "cas-drain";
    fibers = [| worker run s0 Svc.Inc; worker run s1 Svc.Inc; drainer run |];
    finish =
      (fun () ->
        observe run.rt;
        check run ());
  }

let pipelined_drain () =
  let run = make_run ~pipeline:true ~w:2 ~t:2 ~distinct_incs:false () in
  let s0 = Svc.session ~wire:0 run.svc in
  let s1 = Svc.session ~wire:0 run.svc in
  let s2 = Svc.session ~wire:0 run.svc in
  (* Two submissions before either await: a combiner can take both, so
     the wavefront carries two tokens at once, not just one. *)
  let two_incs () =
    let submitted s =
      match Svc.submit s Svc.Inc with
      | Ok () -> true
      | Error e ->
          run.results := (Svc.Inc, op_outcome (Error e)) :: !(run.results);
          false
    in
    let await s =
      let v = Svc.await s in
      run.results := (Svc.Inc, Val v) :: !(run.results)
    in
    let a = submitted s0 in
    let b = submitted s2 in
    if a then await s0;
    if b then await s2
  in
  {
    Engine.name = "pipelined-drain";
    fibers = [| two_incs; worker run s1 Svc.Dec; drainer run |];
    finish = check run;
  }

let all =
  [
    ("drain-vs-shutdown", drain_vs_shutdown);
    ("late-admission", late_admission);
    ("mixed-ops-drain", mixed_ops_drain);
    ("submit-await-shutdown", submit_await_shutdown);
    ("c44-shutdown", c44_shutdown);
    ("cas-drain", fun () -> cas_drain ());
    ("pipelined-drain", pipelined_drain);
  ]
