"""Classify vehicle commands into 8 binary system requirements with LLMs.

The library turns a natural-language in-cabin command into a transcript for a
chat-completion endpoint, parses the fixed-format answer vector out of the
response, and scores predictions against gold labels.  Ships random and
keyword-rule baselines, a stratified sampler, an ablation grid runner, and a
CLI (``cmdreason``).
"""
from __future__ import annotations

from .backend import (
    AuthError,
    BackendConfig,
    ChatBackend,
    CompletionResult,
    HttpChatBackend,
    MockChatBackend,
    ProtocolError,
    RateLimited,
    ResponseCache,
    RetriesExhausted,
    Timeout,
    UnscriptedInput,
    cache_key,
)
from .baselines import (
    MalformedRule,
    Rule,
    RuleSet,
    example_rules,
    load_rules,
    random_classify,
    rule_classify,
)
from .chat import ChatMessage, Transcript
from .dataset import (
    CATEGORIES,
    CATEGORY_TITLES,
    N_QUESTIONS,
    EmptyDataset,
    InfeasibleSample,
    LabelDistribution,
    LabeledCommand,
    MalformedRecord,
    MissingFile,
    RequirementVector,
    distribution,
    load_dataset,
    save_dataset,
    stratified_sample,
)
from .errors import BackendError, CmdReasonError, DataError, UsageError
from .harness import (
    AblationCell,
    AblationGrid,
    AbortedRun,
    ExperimentSpec,
    ResultRow,
    RunResult,
    UnwritableOutput,
    emit_report,
    gold_echo_script,
    load_records,
    run_ablation,
    run_experiment,
)
from .metrics import (
    EvalReport,
    IdMismatch,
    PredictionRecord,
    evaluate,
    format_percent,
)
from .parser import ParseOutcome, parse_response
from .prompt import (
    ExplanationMode,
    PromptConfig,
    PromptTemplate,
    ShotExample,
    TemplateError,
    build_system_prompt,
    build_transcript,
    default_template,
    load_template,
    render_shot,
)
from .rng import SplitMix64

__version__ = "0.1.0"
