"""Self-stabilizing overlay linearization with untrusted supervisor advice.

Protocol library plus a deterministic synchronous-round simulator: nodes
sort themselves into a path, a supervisor may hand out flyover advice
that shortcuts convergence, and every piece of advice is checked locally
so a lying supervisor can only be ignored, never obeyed into a bad state.
"""
