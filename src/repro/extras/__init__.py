"""Paper-appendix reproductions the serving stack never reaches.

* :mod:`~repro.extras.components` -- polygonization / connected
  components from duplicate deletion and pointer jumping (DESIGN.md A2);
* :mod:`~repro.extras.str_pack` -- Sort-Tile-Recursive R-tree packing,
  the comparator of bench C7.

Nothing in ``repro``, ``repro.structures``, ``repro.engine``,
``repro.net``, ``repro.store`` or ``repro.durability`` imports this
package; its tests, benches and examples import it by name.
"""

from .components import MapTopology, connected_components, polygonize
from .str_pack import build_rtree_str

__all__ = ["MapTopology", "connected_components", "polygonize",
           "build_rtree_str"]
