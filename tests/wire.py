"""The decimal spelling of documents the writer packs, for the tests that
tamper with matrix entries: the reader still takes [re, im] pairs, so a
re-spelled document reads to the same matrices, and every refusal case
written against pairs keeps its meaning."""

from rclift import serialize


def as_pairs(doc):
    """doc with every packed matrix object in it re-spelled, in place, as a
    decimal one ({"rows", "cols", "data"}); returns doc."""
    if isinstance(doc, dict):
        if "b64" in doc:
            decimal = serialize.decimal_matrix_to_json(serialize.matrix_from_json(doc))
            doc.clear()
            doc.update(decimal)
        for value in doc.values():
            as_pairs(value)
    elif isinstance(doc, list):
        for value in doc:
            as_pairs(value)
    return doc
