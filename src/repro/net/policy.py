"""Policy-based routing (PBR): source-prefix next-hop overrides.

BGP chooses next hops by destination only.  The inefficiency at the heart
of the case study is *source*-dependent: at the CANARIE Vancouver router,
traffic sourced from PlanetLab prefixes and destined to Google leaves via
the rate-limited Pacific Wave fabric, while traffic from UAlberta's
prefixes uses the direct Google peering (paper Figs. 5 vs 6).  PBR rules
express exactly that: ``(at node, source prefix in S, destination AS in D)
-> forward out link L``.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.errors import TopologyError
from repro.net.address import parse_address, parse_prefix

__all__ = ["PbrRule", "PolicyTable"]


@dataclass(frozen=True)
class PbrRule:
    """One policy-based-routing rule installed at a router.

    Parameters
    ----------
    node:
        Router where the rule is evaluated.
    src_prefixes:
        Source prefixes the rule matches (CIDR strings).  Empty = any.
    dest_asns:
        Destination ASes the rule matches.  Empty = any.
    out_link:
        Name of the link the matching traffic is forwarded out of.
    description:
        Operator-facing note (shows up in diagnostics).
    """

    node: str
    out_link: str
    src_prefixes: FrozenSet[str] = frozenset()
    dest_asns: FrozenSet[int] = frozenset()
    description: str = ""

    def __post_init__(self) -> None:
        for p in self.src_prefixes:
            parse_prefix(p)  # validate eagerly

    def matches(self, src_address: str, dest_asn: int) -> bool:
        """Does traffic (src ip, dest AS) match this rule?"""
        if self.dest_asns and dest_asn not in self.dest_asns:
            return False
        if self.src_prefixes:
            addr = parse_address(src_address)
            if not any(addr in parse_prefix(p) for p in self.src_prefixes):
                return False
        return True

    def __str__(self) -> str:
        src = ",".join(sorted(self.src_prefixes)) or "any"
        dst = ",".join(f"AS{a}" for a in sorted(self.dest_asns)) or "any"
        return f"@{self.node}: src {src} -> dst {dst} via {self.out_link}"


class PolicyTable:
    """All PBR rules in the network, indexed by router."""

    def __init__(self) -> None:
        self._rules: Dict[str, List[PbrRule]] = {}

    def install(self, rule: PbrRule) -> None:
        """Install a rule; rules at one node are evaluated in install order."""
        self._rules.setdefault(rule.node, []).append(rule)

    def rules_at(self, node: str) -> List[PbrRule]:
        return list(self._rules.get(node, []))

    def holds_rules(self, node: str) -> bool:
        """Does *node* hold any rule (so its next hops may read the source)?"""
        return node in self._rules

    def all_rules(self) -> List[PbrRule]:
        return [r for rules in self._rules.values() for r in rules]

    def match(self, node: str, src_address: str, dest_asn: int) -> Optional[PbrRule]:
        """First matching rule at *node*, or None (fall through to BGP)."""
        for rule in self._rules.get(node, ()):
            if rule.matches(src_address, dest_asn):
                return rule
        return None

    def __len__(self) -> int:
        return sum(len(rules) for rules in self._rules.values())
