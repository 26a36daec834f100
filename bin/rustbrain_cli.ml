(* Command-line interface to the reproduction, one module per command
   family:

   - repair ([Repair_cmds]): `check FILE` runs the Miri substrate on a
     MiniRust source file, `fix FILE` repairs one with the RustBrain
     pipeline, `corpus` lists the benchmark corpus and `corpus-show`
     prints one case's buggy and reference sources;
   - campaign ([Campaign_cmds]): `campaign` runs any backend (pipeline or
     baseline) over the corpus, sharded across domains via the unified
     runner API; `trace-summary` renders a per-phase table from a --trace
     JSONL file;
   - serve ([Serve_cmds]): `serve` runs the event-driven repair server on
     a Unix socket, `serve-fsck` scans its state directory, `serve-ctl`
     operates on a running server and submits or re-streams one job;
   - kb ([Kb_cmds]): `kb-init`, `kb-stats` and `kb-fsck` on a persistent
     knowledge-base store.

   `fix`, `campaign`, `serve` and `serve-ctl submit` share one
   campaign-options vocabulary (seeds, domains, fault injection, retries,
   deadline, journal, trace, metrics, out, KB store) built from a single
   Cmdliner term over [Exec.Campaign_opts] ([Common.opts_term]) — the same
   record the serve wire protocol carries.

   MiniRust sources conventionally use the .mrs extension; any path works. *)

open Cmdliner

let () =
  (* hidden worker entry point: the server fork/execs its own binary with
     this marker argv, speaking the procpool protocol on stdin — never a
     user-facing subcommand, so it is dispatched before cmdliner runs *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "__rb_worker" then
    Serve.Procpool.worker_main ();
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "rustbrain" ~version:"1.0.0"
             ~doc:"RustBrain reproduction: detect and repair UB in MiniRust programs.")
          ~default
          [ Repair_cmds.check_cmd; Repair_cmds.fix_cmd; Repair_cmds.corpus_cmd;
            Repair_cmds.corpus_show_cmd; Campaign_cmds.campaign_cmd;
            Serve_cmds.serve_cmd; Serve_cmds.serve_fsck_cmd;
            Serve_cmds.serve_ctl_cmd; Kb_cmds.kb_init_cmd; Kb_cmds.kb_stats_cmd;
            Kb_cmds.kb_fsck_cmd; Campaign_cmds.trace_summary_cmd ]))
