"""RunContext precedence matrix (contract C8).

One test class per context field pins the full chain

    explicit kwarg  >  CLI value  >  ``REPRO_*`` environment  >  default

including the invalid-value error at each step, so the resolution order
can never drift silently.  The registry's tier vocabulary and the
shim-vs-context bit-for-bit equivalence live in ``test_registry.py`` /
``test_ctx_invariance.py``.
"""

from __future__ import annotations

import argparse

import pytest

from repro.runtime import (
    ENGINES,
    EXPANDER_MODES,
    HYBRID_TIERS,
    ROOTING_MODES,
    TIER_CHOICES,
    TIER_KINDS,
    RunContext,
    choice_specified,
    resolve_workers,
    select_choice,
    workers_specified,
)

ALL_ENV = (
    "REPRO_ENGINE",
    "REPRO_ROOTING",
    "REPRO_EXPANDER",
    "REPRO_HYBRID",
    "REPRO_WORKERS",
    "REPRO_SEED",
    "REPRO_SANITIZE",
    "REPRO_DEBUG_SOA",
    "REPRO_SOA_LAYOUT_REUSE",
    "REPRO_TRACE",
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """Every test starts from an unconfigured environment."""
    for var in ALL_ENV:
        monkeypatch.delenv(var, raising=False)


def cli_ns(**kwargs) -> argparse.Namespace:
    return argparse.Namespace(**kwargs)


class TestDefaults:
    def test_all_defaults(self):
        ctx = RunContext.resolve()
        assert ctx.engine == "vectorized"
        assert ctx.rooting == "reference"
        assert ctx.expander == "walks"
        assert ctx.hybrid == "object"
        assert ctx.workers == 1
        assert ctx.seed is None
        assert ctx.sanitize is False
        assert ctx.debug_soa is False
        assert ctx.layout_reuse is True
        assert ctx.tracer is None
        assert ctx.fault_hook is None

    def test_frozen(self):
        ctx = RunContext.resolve()
        with pytest.raises(AttributeError):
            ctx.engine = "legacy"

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown RunContext field"):
            RunContext.resolve(enginee="legacy")

    def test_unknown_field_rejected_in_with_overrides(self):
        with pytest.raises(ValueError, match="unknown RunContext field"):
            RunContext.resolve().with_overrides(wrokers=2)


#: (field, env var, default, choices) for the four choice-valued kinds.
CHOICE_FIELDS = [
    ("engine", "REPRO_ENGINE", "vectorized", TIER_CHOICES),
    ("rooting", "REPRO_ROOTING", "reference", ROOTING_MODES),
    ("expander", "REPRO_EXPANDER", "walks", EXPANDER_MODES),
    ("hybrid", "REPRO_HYBRID", "object", HYBRID_TIERS),
]


@pytest.mark.parametrize("field,env_var,default,choices", CHOICE_FIELDS)
class TestChoicePrecedence:
    """kwarg > CLI > env > default for every choice-valued field."""

    def _alt(self, choices, *exclude):
        return next(c for c in choices if c not in exclude)

    def test_default(self, field, env_var, default, choices):
        assert getattr(RunContext.resolve(), field) == default

    def test_env_beats_default(self, field, env_var, default, choices, monkeypatch):
        env_value = self._alt(choices, default)
        monkeypatch.setenv(env_var, env_value)
        assert getattr(RunContext.resolve(), field) == env_value

    def test_cli_beats_env(self, field, env_var, default, choices, monkeypatch):
        # cli may coincide with the default — resolving to it while the
        # env names something else still proves CLI beat the env.
        env_value = self._alt(choices, default)
        cli_value = self._alt(choices, env_value)
        monkeypatch.setenv(env_var, env_value)
        ctx = RunContext.resolve(cli=cli_ns(**{field: cli_value}))
        assert getattr(ctx, field) == cli_value

    def test_kwarg_beats_cli_and_env(self, field, env_var, default, choices, monkeypatch):
        env_value = self._alt(choices, default)
        cli_value = self._alt(choices, default)
        monkeypatch.setenv(env_var, env_value)
        ctx = RunContext.resolve(
            cli=cli_ns(**{field: cli_value}), **{field: default}
        )
        assert getattr(ctx, field) == default

    def test_none_kwarg_falls_through(self, field, env_var, default, choices, monkeypatch):
        env_value = self._alt(choices, default)
        monkeypatch.setenv(env_var, env_value)
        ctx = RunContext.resolve(**{field: None})
        assert getattr(ctx, field) == env_value

    def test_invalid_kwarg_raises(self, field, env_var, default, choices):
        with pytest.raises(ValueError, match=f"{field} must be one of"):
            RunContext.resolve(**{field: "warp"})

    def test_invalid_env_raises(self, field, env_var, default, choices, monkeypatch):
        monkeypatch.setenv(env_var, "warp")
        with pytest.raises(ValueError, match=f"{field} must be one of"):
            RunContext.resolve()

    def test_invalid_with_overrides_raises(self, field, env_var, default, choices):
        with pytest.raises(ValueError, match=f"{field} must be one of"):
            RunContext.resolve().with_overrides(**{field: "warp"})

    def test_cli_dict_accepted(self, field, env_var, default, choices):
        cli_value = self._alt(choices, default)
        ctx = RunContext.resolve(cli={field: cli_value})
        assert getattr(ctx, field) == cli_value


class TestWorkersPrecedence:
    def test_default(self):
        assert RunContext.resolve().workers == 1

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert RunContext.resolve().workers == 3

    def test_cli_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert RunContext.resolve(cli=cli_ns(workers=2)).workers == 2

    def test_kwarg_beats_cli_and_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        ctx = RunContext.resolve(cli=cli_ns(workers=2), workers=4)
        assert ctx.workers == 4

    def test_invalid_kwarg_raises(self):
        with pytest.raises(ValueError, match="worker count must be >= 1"):
            RunContext.resolve(workers=0)

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS must be a positive integer"):
            RunContext.resolve()

    def test_with_overrides_validates(self):
        with pytest.raises(ValueError, match="worker count must be >= 1"):
            RunContext.resolve().with_overrides(workers=-2)


class TestSeedPrecedence:
    def test_default_is_none(self):
        assert RunContext.resolve().seed is None

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "7")
        assert RunContext.resolve().seed == 7

    def test_cli_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "7")
        assert RunContext.resolve(cli=cli_ns(seed=5)).seed == 5

    def test_kwarg_beats_cli_and_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "7")
        assert RunContext.resolve(cli=cli_ns(seed=5), seed=9).seed == 9

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            RunContext.resolve(seed=-1)

    def test_rng_requires_seed(self):
        with pytest.raises(ValueError, match="seed is unset"):
            RunContext.resolve().rng()

    def test_rng_seed_discipline(self):
        ctx = RunContext.resolve(seed=11)
        a, b = ctx.rng(), ctx.rng()
        # Two calls return identically seeded, independent generators.
        assert a is not b
        assert a.integers(1 << 30) == b.integers(1 << 30)


#: (field, env var, default) for the boolean flags.
FLAG_FIELDS = [
    ("sanitize", "REPRO_SANITIZE", False),
    ("debug_soa", "REPRO_DEBUG_SOA", False),
    ("layout_reuse", "REPRO_SOA_LAYOUT_REUSE", True),
]


@pytest.mark.parametrize("field,env_var,default", FLAG_FIELDS)
class TestFlagPrecedence:
    def test_default(self, field, env_var, default):
        assert getattr(RunContext.resolve(), field) is default

    def test_env_beats_default(self, field, env_var, default, monkeypatch):
        monkeypatch.setenv(env_var, "0" if default else "1")
        assert getattr(RunContext.resolve(), field) is (not default)

    def test_env_zero_means_false(self, field, env_var, default, monkeypatch):
        monkeypatch.setenv(env_var, "0")
        assert getattr(RunContext.resolve(), field) is False

    def test_kwarg_beats_env(self, field, env_var, default, monkeypatch):
        monkeypatch.setenv(env_var, "0" if default else "1")
        ctx = RunContext.resolve(**{field: default})
        assert getattr(ctx, field) is default

    def test_cli_beats_env(self, field, env_var, default, monkeypatch):
        monkeypatch.setenv(env_var, "0" if default else "1")
        ctx = RunContext.resolve(cli=cli_ns(**{field: default}))
        assert getattr(ctx, field) is default


class TestFlagCoupling:
    def test_sanitize_implies_debug_soa(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        ctx = RunContext.resolve()
        assert ctx.sanitize is True and ctx.debug_soa is True

    def test_explicit_debug_soa_false_beats_sanitize(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        ctx = RunContext.resolve(debug_soa=False)
        assert ctx.sanitize is True and ctx.debug_soa is False

    def test_module_switch_honoured(self, monkeypatch):
        from repro import sanitize as sanitize_mod

        monkeypatch.setattr(sanitize_mod, "ENABLED", True)
        assert RunContext.resolve().sanitize is True


class TestTracerAndFaultHook:
    def test_tracer_kwarg_wins(self):
        sentinel = object()
        assert RunContext.resolve(tracer=sentinel).tracer is sentinel

    def test_tracer_ambient_session(self):
        from repro.obs import Tracer, activate

        tracer = Tracer()
        previous = activate(tracer)
        try:
            assert RunContext.resolve().tracer is tracer
        finally:
            activate(previous)

    def test_fault_hook_is_kwarg_only(self):
        hook = object()
        assert RunContext.resolve(fault_hook=hook).fault_hook is hook
        assert RunContext.resolve().fault_hook is None


class TestWithOverrides:
    def test_none_skips(self):
        ctx = RunContext.resolve(engine="legacy", workers=2)
        same = ctx.with_overrides(engine=None, workers=None)
        assert same == ctx

    def test_override_applies(self):
        ctx = RunContext.resolve().with_overrides(engine="legacy", workers=3)
        assert ctx.engine == "legacy" and ctx.workers == 3

    def test_original_untouched(self):
        ctx = RunContext.resolve()
        ctx.with_overrides(engine="legacy")
        assert ctx.engine == "vectorized"


class TestAsDict:
    def test_json_safe_snapshot(self):
        ctx = RunContext.resolve(seed=3, workers=2, tracer=object())
        d = ctx.as_dict()
        assert d["workers"] == 2 and d["seed"] == 3
        assert d["traced"] is True and d["fault_hook"] is False
        import json

        json.dumps(d)  # every value must serialise


class TestSingleFieldResolvers:
    """The harness-facing helpers share the context's resolution."""

    def test_select_choice_matches_resolve(self, monkeypatch):
        monkeypatch.setenv("REPRO_ROOTING", "protocol")
        assert select_choice("rooting") == RunContext.resolve().rooting == "protocol"

    @pytest.mark.parametrize("kind", ["rooting", "expander"])
    def test_batch_is_not_a_tier(self, monkeypatch, kind):
        monkeypatch.setenv(f"REPRO_{kind.upper()}", "batch")
        with pytest.raises(ValueError, match=f"{kind} must be one of"):
            RunContext.resolve()

    def test_select_choice_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            select_choice("flavour")

    def test_select_choice_restricted_choices(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            select_choice("engine", "soa", choices=ENGINES)

    def test_choice_specified(self, monkeypatch):
        assert not choice_specified("engine")
        monkeypatch.setenv("REPRO_ENGINE", "legacy")
        assert choice_specified("engine")
        assert choice_specified("rooting", "protocol")

    def test_workers_specified(self, monkeypatch):
        assert not workers_specified()
        assert workers_specified(2)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert workers_specified()

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5
        assert resolve_workers(2) == 2

    def test_tier_kinds_table_is_complete(self):
        assert set(TIER_KINDS) == {"engine", "rooting", "expander", "hybrid"}
        for field, (env_var, default, choices) in TIER_KINDS.items():
            assert env_var.startswith("REPRO_")
            assert default in choices
