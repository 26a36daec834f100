let stats_of_cache cache =
  let s = Miri.Machine.Cache.stats cache in
  { Runner.cache_hits = s.Miri.Machine.Cache.hits;
    cache_misses = s.Miri.Machine.Cache.misses;
    restarts = 0;
    orphaned_jobs = 0 }

module Rustbrain_pipeline = struct
  type config = Rustbrain.Pipeline.config
  type session = Rustbrain.Pipeline.session

  let name = "rustbrain"
  let default_config = Rustbrain.Pipeline.default_config
  let with_seed cfg seed = { cfg with Rustbrain.Pipeline.seed }
  let seed cfg = cfg.Rustbrain.Pipeline.seed
  let create_session = Rustbrain.Pipeline.create_session
  let repair_case = Rustbrain.Pipeline.repair
  let session_stats s = stats_of_cache (Rustbrain.Pipeline.verification_cache s)
  let resumable = Rustbrain.Pipeline.kb_resolves
end

module Llm_alone = struct
  type config = Baselines.Llm_only.config
  type session = Baselines.Llm_only.session

  let name = "llm-only"
  let default_config = Baselines.Llm_only.default_config
  let with_seed cfg seed = { cfg with Baselines.Llm_only.seed }
  let seed cfg = cfg.Baselines.Llm_only.seed
  let create_session = Baselines.Llm_only.create_session
  let repair_case = Baselines.Llm_only.repair
  let session_stats s = stats_of_cache (Baselines.Llm_only.verification_cache s)
  let resumable _ = true
end

module Fixed_assistant = struct
  type config = Baselines.Rust_assistant.config
  type session = Baselines.Rust_assistant.session

  let name = "rust-assistant"
  let default_config = Baselines.Rust_assistant.default_config
  let with_seed cfg seed = { cfg with Baselines.Rust_assistant.seed }
  let seed cfg = cfg.Baselines.Rust_assistant.seed
  let create_session = Baselines.Rust_assistant.create_session
  let repair_case = Baselines.Rust_assistant.repair
  let session_stats s = stats_of_cache (Baselines.Rust_assistant.verification_cache s)
  let resumable _ = true
end

module Human = struct
  type config = Baselines.Human_expert.config
  type session = Baselines.Human_expert.session

  let name = "human-expert"
  let default_config = Baselines.Human_expert.default_config
  let with_seed cfg seed = { cfg with Baselines.Human_expert.seed }
  let seed cfg = cfg.Baselines.Human_expert.seed
  let create_session = Baselines.Human_expert.create_session
  let repair_case = Baselines.Human_expert.repair
  let session_stats s = stats_of_cache (Baselines.Human_expert.verification_cache s)
  let resumable _ = true
end

let rustbrain ?(config = Rustbrain_pipeline.default_config) () =
  Runner.pack (module Rustbrain_pipeline) config

let llm_only ?(config = Llm_alone.default_config) () =
  Runner.pack (module Llm_alone) config

let rust_assistant ?(config = Fixed_assistant.default_config) () =
  Runner.pack (module Fixed_assistant) config

let human_expert ?(config = Human.default_config) () =
  Runner.pack (module Human) config

let all_names = [ "rustbrain"; "llm-only"; "rust-assistant"; "human-expert" ]

let of_name = function
  | "rustbrain" -> Some (rustbrain ())
  | "llm-only" -> Some (llm_only ())
  | "rust-assistant" -> Some (rust_assistant ())
  | "human-expert" -> Some (human_expert ())
  | _ -> None
