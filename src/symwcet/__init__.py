"""Parametric WCET analysis over control-flow trees.

The pipeline: parse a program document, discover its loop nesting,
restructure the graph into a control-flow tree, then either evaluate the
tree's abstract WCET directly (concrete inputs) or derive a symbolic
formula, simplify it, and instantiate it per parameter binding.
"""

__version__ = "0.1.0"
