"""Harmonic-field navigation for a differential-drive UGV over a lossy network.

The package closes the loop camera -> edge map -> potential field -> curve
tracking controller -> plant, with configurable transport delay in both
directions, and ships a fast-marching planner for comparison.
"""

__version__ = "0.1.0"
