"""Static quality gates: the AST-based determinism & contract linter.

``repro.quality`` turns the repo's reproducibility invariants — no
wall-clock or unseeded randomness in the simulator core, frozen
round-trippable specs, position-not-id routing — from runtime-test
folklore into machine-checked rules.  ``repro lint`` runs them from the
CLI; ``tests/test_lint.py::test_codebase_clean`` enforces a clean tree
in tier-1.
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.quality.rules": (
        "RULE_REGISTRY", "Rule", "Violation", "all_rules", "register_rule",
        "resolve_rule", "rule_tokens"),
    "repro.quality.lint": (
        "exit_code", "format_json", "format_text", "iter_python_files",
        "lint_paths", "lint_source"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
