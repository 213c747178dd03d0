#!/usr/bin/env python3
"""Per-rule pruning profile over the bundled sample sentences.

For each sentence, applies the demo grammar under both application
orders and prints how many readings each rule discards and what it
costs, making visible that the surviving set is order independent while
the intermediate work is not.
"""

import time

from fslat import data
from fslat.engine import Pipeline, apply_grammar
from fslat.grammar import parse_grammar
from fslat.lattice import default_registry, parse_syntactic_map
from fslat.lexicon import parse_lexicon, split_sentences, tokenize


def main():
    registry = default_registry()
    lexicon = parse_lexicon(data.read("demo.lex"))
    smap = parse_syntactic_map(data.read("demo.map"), registry)
    grammar = parse_grammar(data.read("demo.fsg"))
    pipeline = Pipeline.build(lexicon, smap, grammar, registry)

    sentences = split_sentences(tokenize(data.read("sample_sentences.txt")))
    for tokens in sentences:
        print("=" * 72)
        print(" ".join(tokens))
        lattice = pipeline.lattice_for(tokens)
        for order, rules in (
            ("as-written", pipeline.rules),
            ("reversed", tuple(reversed(pipeline.rules))),
        ):
            t0 = time.perf_counter()
            survived, trace = apply_grammar(lattice, rules)
            elapsed = time.perf_counter() - t0
            effective = [s for s in trace.steps if s.after < s.before]
            print(
                f"  {order:16s} {elapsed*1000:8.1f} ms, "
                f"{len(effective)}/{len(trace.steps)} rules pruned, "
                f"final {trace.final}"
            )
            top = sorted(effective, key=lambda s: s.after / max(s.before, 1))[:5]
            for step in top:
                drop = step.before // max(step.after, 1)
                print(f"      {step.rule[:44]:44s} cut {drop}x")


if __name__ == "__main__":
    main()
