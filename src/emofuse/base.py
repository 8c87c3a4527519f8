"""Estimator plumbing: parameter introspection and input validation.

``ParamsMixin`` implements the scikit-learn get_params/set_params protocol
from the constructor signature, so estimators here clone and grid-search
with sklearn tooling without this package depending on it.
"""

from __future__ import annotations

import inspect
from numbers import Integral
from typing import Sequence

from .data import EMOTIONS, EmbeddingTable, UtteranceRecord, load_embeddings
from .errors import InputError


class ParamsMixin:
    """get_params/set_params/repr derived from the __init__ signature.

    Subclasses must store every constructor argument verbatim under the
    same attribute name (the sklearn convention).
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [name for name, p in signature.parameters.items()
                if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise InputError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_records(records) -> list[UtteranceRecord]:
    """A nonempty sequence of UtteranceRecord, returned as a list."""
    if records is None:
        raise InputError("records must not be None")
    records = list(records)
    if not records:
        raise InputError("need at least one utterance record")
    for r in records:
        if not isinstance(r, UtteranceRecord):
            raise InputError(f"expected UtteranceRecord items, got {type(r).__name__}")
    return records


def check_labels(records: Sequence[UtteranceRecord], y) -> list[int]:
    """Labels from y if given (overriding the records), else from the records.

    A label must be an integer (numpy integers included) in 0..3; int()
    would truncate 1.9 to 1 and read True as 1.
    """
    if y is None:
        return [r.label for r in records]
    try:
        values = list(y)
    except TypeError:
        raise InputError(f"y must be a sequence of labels, got {type(y).__name__}") from None
    labels = []
    for v in values:
        if not isinstance(v, Integral) or isinstance(v, bool) or not 0 <= v < len(EMOTIONS):
            raise InputError(f"label {v!r} is not an integer in 0..{len(EMOTIONS) - 1}")
        labels.append(int(v))
    if len(labels) != len(records):
        raise InputError(f"y has {len(labels)} labels for {len(records)} records")
    return labels


def ensure_embedding_table(embeddings) -> EmbeddingTable:
    """Accept an EmbeddingTable or a path to an embedding text file."""
    if embeddings is None:
        raise InputError("an embedding table (or a path to one) is required; "
                         "pass embeddings= to the estimator")
    if isinstance(embeddings, EmbeddingTable):
        return embeddings
    return load_embeddings(embeddings)


def check_is_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise InputError(
            f"this {type(estimator).__name__} instance is not fitted yet; call fit first")
