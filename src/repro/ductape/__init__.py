"""DUCTAPE — "C++ program Database Utilities and Conversion Tools
APplication Environment" (paper Section 3.3), in Python.

Provides an object-oriented API to PDB files produced by the IL
Analyzer.  Each PDB item type is represented by a class with a
corresponding name; common attributes are factored into the generic base
classes of paper Figure 4:

* :class:`PdbSimpleItem` — name and PDB id,
* :class:`PdbFile` — source files, with inclusion edges,
* :class:`PdbItem` — items with a source location, optional parent
  class/namespace, and access mode,
* :class:`PdbMacro`, :class:`PdbType`,
* :class:`PdbFatItem` — items with header and body extents,
* :class:`PdbTemplate`, :class:`PdbNamespace`,
* :class:`PdbTemplateItem` — entities instantiable from templates,
* :class:`PdbClass`, :class:`PdbRoutine`,
* :class:`PdbFerr` — frontend error records from fault-tolerant builds.

The :class:`PDB` class represents an entire PDB file: reading, writing,
merging, item vectors, the source-file inclusion tree, the static call
tree, and the class hierarchy.  "Attributes of items representing
references to other entities are implemented by pointers to the
corresponding objects, allowing easy navigation" — here, plain Python
references, each resolved on first touch and memoised, once per PDB.
"""

from repro.ductape.items import (
    ACTIVE,
    INACTIVE,
    PdbCall,
    PdbClass,
    PdbFerr,
    PdbFile,
    PdbItem,
    PdbLoc,
    PdbMacro,
    PdbMember,
    PdbNamespace,
    PdbRoutine,
    PdbSimpleItem,
    PdbTemplate,
    PdbTemplateItem,
    PdbType,
)
from repro.ductape.pdb import PDB, MergeStats

__all__ = [
    "ACTIVE",
    "INACTIVE",
    "MergeStats",
    "PDB",
    "PdbCall",
    "PdbClass",
    "PdbFerr",
    "PdbFile",
    "PdbItem",
    "PdbLoc",
    "PdbMacro",
    "PdbMember",
    "PdbNamespace",
    "PdbRoutine",
    "PdbSimpleItem",
    "PdbTemplate",
    "PdbTemplateItem",
    "PdbType",
]
