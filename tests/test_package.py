import sys

import unical

MODULES = ("abelian", "convert", "model", "numeric", "registry")

EXPECTED = {
    "__version__",
    # abelian
    "ExponentMap",
    "GroupInterface",
    "MAP_GROUP",
    "em_delta",
    "em_empty",
    "em_eval",
    "em_factors",
    "em_flatten",
    "em_inv",
    "em_map",
    "em_mul",
    "em_pow",
    # convert
    "ClassificationReport",
    "ClosureExploration",
    "ConvTriple",
    "ConversionError",
    "DefiningConversion",
    "DependencyReport",
    "NotWellDefiningError",
    "RuleError",
    "analyze",
    "check_triples",
    "classify",
    "coherent",
    "convert",
    "defining_conversion",
    "explore_closure",
    "rwr_eval",
    "rwr_star",
    "xpd",
    # model
    "AbstractUnit",
    "Dimension",
    "EQUIV_LEVELS",
    "EvaluatedUnit",
    "NormalizedUnit",
    "PreUnit",
    "Prefix",
    "RATIO_GROUP",
    "RootUnit",
    "Unit",
    "UnitSystem",
    "UnknownSymbolError",
    "abstract",
    "dim",
    "dim_root",
    "equiv",
    "evaluate",
    "norm",
    "pref",
    "prefix_apply",
    "prefix_unit",
    "pval",
    "root",
    "strip",
    "unroot",
    "val",
    # numeric
    "MAX_RATIO_BITS",
    "ONE",
    "Ratio",
    "RatioError",
    "ratio_bits",
    "ratio_check_bits",
    "ratio_inv",
    "ratio_make",
    "ratio_mul",
    "ratio_parse",
    "ratio_pow",
    "ratio_text",
    "ratio_to_decimal",
    # registry
    "BUNDLED_REGISTRIES",
    "MAX_UNIT_EXPONENT",
    "MAX_UNIT_NESTING",
    "RegistryDocument",
    "RegistryError",
    "UnitSyntaxError",
    "UnknownIdentifierError",
    "build_system",
    "bundled_registry",
    "load_registry",
    "merge_documents",
    "parse_document",
    "parse_unit",
    "print_dimension",
    "print_evaluated",
    "print_normalized",
    "print_prefix",
    "print_root",
    "print_unit",
    "read_registry",
}


def test_the_package_exports_the_union_of_its_modules_lists():
    assert len(EXPECTED) == 90
    assert len(unical.__all__) == len(set(unical.__all__)) and set(unical.__all__) == EXPECTED
    lists = {name: sys.modules[f"unical.{name}"].__all__ for name in MODULES}
    # A name in two lists would be exported from whichever star import runs last.
    assert sum(len(names) for names in lists.values()) == len(set().union(*lists.values()))
    assert set().union(*lists.values()) == EXPECTED - {"__version__"}
    for module, names in lists.items():
        for name in names:
            assert getattr(unical, name) is getattr(sys.modules[f"unical.{module}"], name), name
    assert unical.convert is sys.modules["unical.convert"].convert
