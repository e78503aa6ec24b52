"""Higher-order term rewriting with decision-tree pattern matching."""

from .terms import (
    Abst,
    App,
    MetaApp,
    Prod,
    Sort,
    Symb,
    Term,
    Var,
    alpha_eq,
    build_app,
    free_vars,
    fresh_var,
    spine,
    subst,
    symb,
)
from .patterns import (
    Closure,
    PatAbst,
    PatSymb,
    PatVar,
    Pattern,
    Rule,
    apply_subst,
    match_patterns,
    naive_rewrite_head,
    validate_rule,
)

__all__ = [
    "Abst", "App", "MetaApp", "Prod", "Sort", "Symb", "Term", "Var",
    "alpha_eq", "build_app", "free_vars", "fresh_var", "spine", "subst",
    "symb",
    "Closure", "PatAbst", "PatSymb", "PatVar", "Pattern", "Rule",
    "apply_subst", "match_patterns", "naive_rewrite_head", "validate_rule",
]
