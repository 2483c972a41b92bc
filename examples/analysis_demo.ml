(* The static analyzer as a library: run the three `ccopt analyze`
   passes programmatically and walk the diagnostics they return.

     dune exec examples/analysis_demo.exe
*)

open Core

let hr title =
  Printf.printf "\n--- %s %s\n" title (String.make (max 1 (60 - String.length title)) '-')

let () =
  (* 1. The anomaly detector on the paper's flagship system xy,yx with
     the fully interleaved schedule: a write-skew 2-cycle. *)
  hr "anomaly detection: xy,yx under 0101";
  let syntax = Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ] in
  let req =
    Analysis.Analyze.request ~schedule:[| 0; 1; 0; 1 |] syntax
  in
  Format.printf "%a@." Analysis.Report.pp (Analysis.Analyze.run req);

  (* 2. The same report as JSON — what `ccopt analyze --json` emits. *)
  hr "the same report as JSON";
  print_endline
    (Obs.Json.to_string (Analysis.Report.to_json (Analysis.Analyze.run req)));

  (* 3. The lock linter. 2PL on xy,yx is serializable but can deadlock;
     preclaiming trades that for less concurrency and no deadlock. *)
  hr "lock linting: 2pl vs preclaim on xy,yx";
  List.iter
    (fun name ->
      let policy = Analysis.Analyze.policy_of_name name in
      let diags =
        Analysis.Lock_lint.lint (Analysis.Lock_lint.of_policy policy syntax)
      in
      Printf.printf "%s:\n" name;
      List.iter
        (fun d ->
          Printf.printf "  %-28s %s\n" d.Analysis.Report.rule
            d.Analysis.Report.message)
        diags)
    [ "2pl"; "preclaim" ];

  (* 4. Picking one diagnostic apart: the deadlock witness is a concrete
     progress vector plus a legal prefix that reaches it. *)
  hr "replaying the 2pl deadlock witness";
  let diags =
    Analysis.Lock_lint.lint
      (Analysis.Lock_lint.of_policy (Analysis.Analyze.policy_of_name "2pl")
         syntax)
  in
  (match
     List.find_opt (fun d -> d.Analysis.Report.rule = "lock/deadlock") diags
   with
  | Some { Analysis.Report.witness = Some (Analysis.Report.Progress (p, pre)); _ }
    ->
    Printf.printf "doomed progress vector: (%s)\n"
      (String.concat "," (List.map string_of_int (Array.to_list p)));
    Printf.printf "legal prefix reaching it: [%s]\n"
      (String.concat ";" (List.map string_of_int (Array.to_list pre)))
  | _ -> print_endline "no deadlock diagnostic (unexpected for 2pl)");

  (* 5. The certifier: SGT's fixpoint output set P sits inside the
     Theorem 1 information bound over a Z_2 micro-universe. *)
  hr "certifying the SGT scheduler (Theorem 1 bound)";
  let diags =
    Analysis.Certifier.certify ~name:"sgt"
      ~make:(fun () -> Sched.Sgt.create ~syntax ())
      ~level:Analysis.Certifier.Syntactic syntax
  in
  List.iter
    (fun d ->
      Printf.printf "%-28s %s\n" d.Analysis.Report.rule d.Analysis.Report.message)
    diags
