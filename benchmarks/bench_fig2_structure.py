"""Figure 2: the structure of the Register-File update expressions for a
processor with 3 reorder-buffer entries and issue/retire width 2 —
(a) before and (b) after the rewriting rules remove the updates of the
instructions initially in the ROB.

The paper's only results-bearing figure; regenerated here as the update
triples ``<context, address, data>`` of both sides.
"""

from repro import verify
from repro.core import render_rows
from repro.eufm import to_sexpr
from repro.processor import ProcessorConfig
from repro.rewriting import decompose_chain

from common import save_table


def _clip(expr, limit=58):
    text = to_sexpr(expr)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _rows_for(mem):
    chain = decompose_chain(mem)
    rows = []
    for item in chain.items:
        rows.append([_clip(item.context, 44), _clip(item.addr, 16), _clip(item.data)])
    return rows, chain.base


def _generate():
    rewrite = verify(ProcessorConfig(n_rob=3, issue_width=2)).rewrite
    assert rewrite.succeeded
    artifacts = rewrite.artifacts

    sections = []
    impl_rows, impl_base = _rows_for(artifacts.rf_impl)
    sections.append(
        render_rows(
            f"Fig. 2(a) implementation side — updates on {to_sexpr(impl_base)} "
            "(oldest first)",
            ["context", "address", "data"],
            impl_rows,
        )
    )
    spec_rows, spec_base = _rows_for(artifacts.spec_states[2].reg_file)
    sections.append(
        render_rows(
            f"Fig. 2(a) specification side — updates on {to_sexpr(spec_base)}",
            ["context", "address", "data"],
            spec_rows,
        )
    )

    # After the rewriting rules: only the newly fetched instructions remain,
    # over the fresh RegFile_equal_state variable.
    impl_rows_after, base_after = _rows_for(rewrite.reduced_rf_impl)
    spec_rows_after, _ = _rows_for(rewrite.reduced_spec_rfs[-1])
    sections.append(
        render_rows(
            f"Fig. 2(b) implementation side after rewriting — updates on "
            f"{to_sexpr(base_after)}",
            ["context", "address", "data"],
            impl_rows_after,
        )
    )
    sections.append(
        render_rows(
            "Fig. 2(b) specification side after rewriting",
            ["context", "address", "data"],
            spec_rows_after,
        )
    )
    return "\n\n".join(sections), impl_rows, impl_rows_after


def test_fig2_update_structure():
    text, before_rows, after_rows = _generate()
    save_table("fig2_structure", text)
    # Before: 2 retirement + 5 completion updates on the implementation
    # side.  After: only the 2 newly fetched instructions remain.
    assert len(before_rows) == 7
    assert len(after_rows) == 2
