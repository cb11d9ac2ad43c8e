"""Shareable-goods games on networks: game rules and equilibria,
best-response dynamics, optimal purchase sets, and social-inefficiency
measurement."""

from .game import SGG, SGG_AC, GameConfig
from .netgraph import FamilySpec, Graph, generate, load_edge_list

__all__ = ["SGG", "SGG_AC", "GameConfig", "FamilySpec", "Graph", "generate",
           "load_edge_list"]
