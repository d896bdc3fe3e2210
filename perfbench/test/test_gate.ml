(* The benchmark's correctness gate: a run told to expect one more than
   the true final total must fail its gate and lower ok_ratio; the same
   run with the true total must pass. *)

let ok_ratio (r : Perfbench.result) =
  List.find_map
    (fun (name, v, _) -> if name = "ok_ratio" then Some v else None)
    r.metrics

let () =
  List.iter
    (fun (name, w) ->
      let run ?bias () = Perfbench.run ?bias w ~seed:7 ~seconds:0.05 ~trace:false in
      let wrong = run ~bias:1 () in
      if wrong.correct || wrong.failed < 1 || ok_ratio wrong = Some 1. then
        failwith (name ^ ": the gate passed a wrong expected total");
      let right = run () in
      if (not right.correct) || ok_ratio right <> Some 1. then
        failwith (name ^ ": the gate failed a correct run");
      Printf.printf "%s: gate rejects a wrong total, passes the true one\n" name)
    Perfbench.workloads
