"""Routing vectors: the paper's central data structure (§2.2).

A routing vector ``D(t)`` has one element per observed *network*, each
taking one of the service's catchment states (a site label) or one of
three special states:

* ``unknown`` — the measurement did not determine a catchment;
* ``err``     — the network answered but reached no site;
* ``other``   — an unmapped or filtered-out site (micro-catchments).

Internally a vector is a numpy array of state codes over a shared
:class:`StateCatalog`, so five-year series over millions of networks
stay cheap to compare. ``D*(t)`` (one-hot) and ``A(t)`` (per-site
aggregate counts) follow the paper's definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from itertools import repeat
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

__all__ = ["UNKNOWN", "ERROR", "OTHER", "SPECIAL_STATES", "StateCatalog", "RoutingVector"]

UNKNOWN = "unknown"
ERROR = "err"
OTHER = "other"
SPECIAL_STATES = (UNKNOWN, ERROR, OTHER)

UNKNOWN_CODE = 0
ERROR_CODE = 1
OTHER_CODE = 2


class StateCatalog:
    """Bidirectional mapping between state labels and integer codes.

    Codes 0..2 are reserved for the special states so every vector in a
    study shares them; site labels get codes in arrival order.
    """

    def __init__(self, sites: Iterable[str] = ()) -> None:
        self._labels: list[str] = list(SPECIAL_STATES)
        self._codes: dict[str, int] = {label: i for i, label in enumerate(self._labels)}
        for site in sites:
            self.code(site)

    def code(self, label: str) -> int:
        """The code for ``label``, assigning a new one if unseen."""
        existing = self._codes.get(label)
        if existing is not None:
            return existing
        code = len(self._labels)
        self._labels.append(label)
        self._codes[label] = code
        return code

    def lookup(self, label: str) -> Optional[int]:
        """The code for ``label`` if known, else None (no assignment)."""
        return self._codes.get(label)

    def label(self, code: int) -> str:
        return self._labels[code]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._labels)

    @property
    def site_labels(self) -> tuple[str, ...]:
        """All non-special state labels."""
        return tuple(self._labels[len(SPECIAL_STATES):])

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: object) -> bool:
        return label in self._codes


@dataclass
class RoutingVector:
    """One routing result ``D(t)``: networks → states at a single time."""

    networks: tuple[str, ...]
    codes: np.ndarray  # int32, length == len(networks)
    catalog: StateCatalog
    time: Optional[datetime] = None

    def __post_init__(self) -> None:
        self.codes = np.asarray(self.codes, dtype=np.int32)
        if self.codes.ndim != 1 or len(self.codes) != len(self.networks):
            raise ValueError(
                f"codes shape {self.codes.shape} does not match "
                f"{len(self.networks)} networks"
            )
        if len(self.codes) and (
            self.codes.min() < 0 or self.codes.max() >= len(self.catalog)
        ):
            raise ValueError("state code outside catalog range")

    # -- construction ------------------------------------------------------

    @classmethod
    def _trusted(
        cls,
        networks: tuple[str, ...],
        codes: np.ndarray,
        catalog: StateCatalog,
        time: Optional[datetime] = None,
    ) -> "RoutingVector":
        """Construct without re-validating ``codes``.

        For hot paths that rebuild a vector from codes this class
        already validated (e.g. re-stamping the previous round's codes
        when an identical assignment recurs); ``codes`` must be an
        int32 array of the right length with in-catalog values.
        """
        vector = cls.__new__(cls)
        vector.networks = networks
        vector.codes = codes
        vector.catalog = catalog
        vector.time = time
        return vector

    @classmethod
    def from_mapping(
        cls,
        assignment: Mapping[str, str],
        catalog: Optional[StateCatalog] = None,
        networks: Optional[Sequence[str]] = None,
        time: Optional[datetime] = None,
    ) -> "RoutingVector":
        """Build a vector from a ``{network: state_label}`` mapping.

        Networks absent from ``assignment`` (when an explicit network
        list is given) are recorded as ``unknown``.
        """
        catalog = catalog or StateCatalog()
        nets = tuple(networks) if networks is not None else tuple(sorted(assignment))
        labels = list(map(assignment.get, nets, repeat(UNKNOWN)))
        # Unseen labels get their codes in order of first occurrence.
        for label in dict.fromkeys(labels):
            catalog.code(label)
        codes = np.fromiter(
            map(catalog._codes.__getitem__, labels), dtype=np.int32, count=len(labels)
        )
        return cls(nets, codes, catalog, time)

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.networks)

    def state_of(self, network: str) -> str:
        index = self.networks.index(network)
        return self.catalog.label(int(self.codes[index]))

    def to_mapping(self) -> dict[str, str]:
        return {
            network: self.catalog.label(int(code))
            for network, code in zip(self.networks, self.codes)
        }

    @property
    def known_mask(self) -> np.ndarray:
        """Boolean mask of networks whose catchment is known."""
        return self.codes != UNKNOWN_CODE

    def one_hot(self) -> np.ndarray:
        """``D*(t)``: the N×|S| one-hot matrix from §2.2."""
        matrix = np.zeros((len(self.networks), len(self.catalog)), dtype=np.int8)
        matrix[np.arange(len(self.codes)), self.codes] = 1
        return matrix

    def aggregate(self, weights: Optional[np.ndarray] = None) -> dict[str, float]:
        """``A(t)``: per-state totals, optionally weighted (§2.2, §2.5)."""
        if weights is None:
            counts = np.bincount(self.codes, minlength=len(self.catalog))
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != self.codes.shape:
                raise ValueError("weights length does not match networks")
            counts = np.bincount(
                self.codes, weights=weights, minlength=len(self.catalog)
            )
        return {
            self.catalog.label(code): float(counts[code])
            for code in range(len(self.catalog))
            if counts[code]
        }

    def fraction_unknown(self) -> float:
        if not len(self.codes):
            return 0.0
        return float(np.count_nonzero(self.codes == UNKNOWN_CODE)) / len(self.codes)

    def replace_codes(self, codes: np.ndarray) -> "RoutingVector":
        """A copy of this vector with different state codes."""
        return RoutingVector(self.networks, codes, self.catalog, self.time)

    def concentration(self, weights: Optional[np.ndarray] = None) -> float:
        """Herfindahl concentration of the catchments, in (0, 1].

        1.0 means a single site serves every known network (the
        polarization/DDoS-fragility extreme); 1/|S| means a perfectly
        even split across |S| sites. Special states are excluded.
        """
        aggregate = self.aggregate(weights)
        shares = [
            value
            for label, value in aggregate.items()
            if label not in SPECIAL_STATES
        ]
        total = sum(shares)
        if total <= 0:
            return float("nan")
        return float(sum((value / total) ** 2 for value in shares))

    def effective_sites(self, weights: Optional[np.ndarray] = None) -> float:
        """Inverse-Herfindahl: the equivalent number of equal sites."""
        concentration = self.concentration(weights)
        return 1.0 / concentration if concentration > 0 else float("nan")
