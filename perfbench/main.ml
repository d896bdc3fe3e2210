(* Command line of the benchmark; see README.md in this directory. *)

let usage =
  "main.exe --workload NAME --seed N --seconds N --trace 0|1\n\
   workloads: "
  ^ String.concat ", " (List.map fst Perfbench.workloads)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the op streams");
      ("--seconds", Arg.Set_float seconds, "N length of the measured run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !workload Perfbench.workloads with
    | Some w when !seconds > 0. && (!trace = 0 || !trace = 1) -> w
    | _ ->
        prerr_endline usage;
        exit 2
  in
  Printf.printf "# workload %s, seed %d, seconds %g, trace %d\n# %s\n%!"
    !workload !seed !seconds !trace (Perfbench.header ());
  let r =
    (* A disconnect or protocol error ends the run as a failed one. *)
    try Perfbench.run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    with e ->
      {
        Perfbench.correct = false;
        attempted = 1;
        failed = 1;
        metrics = [];
        notes = [ "run failed: " ^ Printexc.to_string e ];
      }
  in
  List.iter (Printf.printf "# %s\n") r.notes;
  print_endline (Perfbench.json_of r);
  if not r.correct then exit 1
