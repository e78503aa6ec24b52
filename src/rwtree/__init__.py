"""Higher-order term rewriting with decision-tree pattern matching."""
