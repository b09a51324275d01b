"""The formal ``Index`` protocol shared by every search backend.

Historically the baselines inherited an ad-hoc two-method base class while
RBC grew extra surface (``range_query``, ``memory_footprint``, ``warm``,
mutability) that callers discovered through ``getattr`` probes.  This module
replaces that with a declared contract:

* :class:`Capabilities` — a frozen dataclass of feature flags a backend
  advertises (exact vs approximate, range support, mutability, quantizer
  support, rescore/warm opt-in).
* :class:`UnsupportedCapability` — the uniform error raised when a caller
  invokes an operation the backend does not declare (never a bare
  ``AttributeError``).
* :class:`Index` — the abstract protocol: ``build / query / range_query /
  memory_footprint / capabilities``.

``capabilities()`` is an *instance* method so backends may refine their
class-level declaration from runtime state (e.g. brute force over an edit
metric is not rescorable because its database is not a vector matrix).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..runtime.context import ExecContext

__all__ = [
    "Capabilities",
    "Index",
    "UnsupportedCapability",
    "capabilities_for",
]


class UnsupportedCapability(RuntimeError):
    """Raised when an index is asked for an operation it does not declare.

    Uniform across the fleet: callers can catch one exception type instead
    of distinguishing ``AttributeError`` (missing method) from
    ``NotImplementedError`` (stub method).
    """


@dataclass(frozen=True)
class Capabilities:
    """Feature flags a backend declares about itself.

    Attributes
    ----------
    exact:
        ``query`` returns the true k nearest neighbors (not approximate).
    range_queries:
        ``range_query(Q, eps)`` is implemented.
    mutable:
        ``insert`` / ``delete`` are supported after ``build``.
    quantizable:
        The backend accepts a ``quantizer`` and can scan compressed
        operands through the metric engine.
    rescorable:
        Serving layers may re-rank the backend's returned ids against its
        ``.X`` matrix with ``rescore_pairs`` (requires a vector metric and
        an ndarray database).
    warmable:
        ``warm(ctx)`` pre-builds kernel plans / caches.
    degradable:
        ``degrade()`` / ``restore()`` walk a quality ladder (the router);
        SLO breach hooks may call them.
    """

    exact: bool = True
    range_queries: bool = False
    mutable: bool = False
    quantizable: bool = False
    rescorable: bool = False
    warmable: bool = False
    degradable: bool = False

    def replace(self, **kw) -> "Capabilities":
        return dataclasses.replace(self, **kw)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class Index:
    """Abstract nearest-neighbor index — the one protocol every backend
    (and the router itself) implements.

    Concrete classes must implement :meth:`build` and :meth:`query`;
    :meth:`range_query` defaults to raising :class:`UnsupportedCapability`
    and :meth:`capabilities` defaults to the class-level :attr:`CAPS`
    declaration.
    """

    #: class-level capability declaration; instances may refine via
    #: :meth:`capabilities`.
    CAPS: Capabilities = Capabilities()

    metric = None

    def build(
        self,
        X,
        *,
        ctx: ExecContext | None = None,
    ) -> "Index":
        """Preprocess the database ``X``; returns ``self``."""
        raise NotImplementedError

    def query(
        self,
        Q,
        k: int = 1,
        *,
        ctx: ExecContext | None = None,
    ):
        """Return ``(dist, idx)`` arrays of shape ``(len(Q), k)``.

        Rows are ascending by distance; short rows are padded with
        ``inf`` / ``-1``.
        """
        raise NotImplementedError

    def range_query(
        self,
        Q,
        eps: float,
        *,
        ctx: ExecContext | None = None,
    ):
        """Return, per query, a ``(dist, idx)`` pair of all points within
        ``eps`` — or raise :class:`UnsupportedCapability` when the backend
        does not declare ``range_queries``."""
        raise UnsupportedCapability(
            f"{type(self).__name__} does not support range queries "
            "(capabilities().range_queries is False)"
        )

    def memory_footprint(self) -> int:
        """Approximate bytes held by the built structure."""
        raise NotImplementedError

    def capabilities(self) -> Capabilities:
        """The backend's declared feature flags.

        The default refines the class-level :attr:`CAPS` with instance
        state: ``rescorable`` additionally requires a vector metric over
        an ndarray database *right now* (an index configured with, say,
        an edit metric cannot be re-scored even if the class allows it).
        """
        return self.CAPS.replace(
            rescorable=self.CAPS.rescorable and self._rescorable_now()
        )

    def _rescorable_now(self) -> bool:
        from ..metrics.base import VectorMetric

        return isinstance(self.metric, VectorMetric) and isinstance(
            getattr(self, "X", None), np.ndarray
        )

    # Convenience used by serving layers and tests -------------------------

    def supports(self, flag: str) -> bool:
        """``True`` iff :meth:`capabilities` declares ``flag``."""
        return bool(getattr(self.capabilities(), flag))


def capabilities_for(index) -> Capabilities:
    """Capabilities of *any* index-like object.

    Protocol-conforming backends answer through :meth:`Index.capabilities`;
    for foreign objects (user-supplied duck-typed indexes) this falls back
    to conservative structural probes so existing integrations keep
    working.
    """
    caps = getattr(index, "capabilities", None)
    if callable(caps):
        got = caps()
        if isinstance(got, Capabilities):
            return got
    from ..metrics.base import VectorMetric

    rescorable = isinstance(getattr(index, "metric", None), VectorMetric) and isinstance(
        getattr(index, "X", None), np.ndarray
    )
    return Capabilities(
        exact=False,
        range_queries=callable(getattr(index, "range_query", None)),
        mutable=callable(getattr(index, "insert", None)),
        quantizable=False,
        rescorable=rescorable,
        warmable=callable(getattr(index, "warm", None)),
        degradable=callable(getattr(index, "degrade", None)),
    )
