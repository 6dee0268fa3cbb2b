// Tests for the Table 2 dataset and the synthetic structure generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "data/generator.hpp"
#include "data/table2.hpp"
#include "mol/io_pdb.hpp"
#include "mol/io_sdf.hpp"
#include "mol/prepare.hpp"
#include "mol/torsion.hpp"
#include "vfs/vfs.hpp"

namespace scidock::data {
namespace {

TEST(Table2, DatasetCardinalityMatchesPaper) {
  EXPECT_EQ(table2_receptors().size(), 238u);
  EXPECT_EQ(table2_ligands().size(), 42u);
  EXPECT_EQ(table3_ligands().size(), 4u);
  // 238 x 42 = 9996 ~ the paper's "10,000 receptor-ligand pairs".
  EXPECT_EQ(table2_receptors().size() * table2_ligands().size(), 9996u);
}

TEST(Table2, CodesAreUniqueAndWellFormed) {
  std::set<std::string> unique(table2_receptors().begin(),
                               table2_receptors().end());
  EXPECT_EQ(unique.size(), table2_receptors().size());
  for (const std::string& code : table2_receptors()) {
    EXPECT_EQ(code.size(), 4u) << code;  // PDB ids are four characters
  }
  std::set<std::string> lig(table2_ligands().begin(), table2_ligands().end());
  EXPECT_EQ(lig.size(), table2_ligands().size());
}

TEST(Table2, PaperLandmarksPresent) {
  // The receptors/ligands the paper names explicitly.
  const auto& recs = table2_receptors();
  for (const char* code : {"2HHN", "1S4V", "1HUC", "9PAP", "1AEC"}) {
    EXPECT_NE(std::find(recs.begin(), recs.end(), code), recs.end()) << code;
  }
  const auto& ligs = table2_ligands();
  for (const char* code : {"042", "074", "0D6", "0E6"}) {
    EXPECT_NE(std::find(ligs.begin(), ligs.end(), code), ligs.end()) << code;
  }
}

TEST(Generator, ReceptorsAreDeterministic) {
  const mol::Molecule a = make_receptor("2HHN");
  const mol::Molecule b = make_receptor("2HHN");
  ASSERT_EQ(a.atom_count(), b.atom_count());
  for (int i = 0; i < a.atom_count(); ++i) {
    EXPECT_EQ(a.atom(i).pos, b.atom(i).pos);
    EXPECT_EQ(a.atom(i).element, b.atom(i).element);
  }
  EXPECT_NE(make_receptor("1HUC").atom_count(), 0);
}

TEST(Generator, DifferentCodesGiveDifferentStructures) {
  const mol::Molecule a = make_receptor("2HHN");
  const mol::Molecule b = make_receptor("1S4V");
  EXPECT_TRUE(a.atom_count() != b.atom_count() ||
              a.atom(0).pos != b.atom(0).pos);
}

TEST(Generator, ReceptorSizesSpanTheConfiguredRange) {
  GeneratorOptions opts;
  int lo = 1 << 30, hi = 0;
  for (const std::string& code : table2_receptors()) {
    const int n = receptor_residue_count(code, opts);
    EXPECT_GE(n, opts.min_residues);
    EXPECT_LE(n, opts.max_residues);
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  EXPECT_LT(lo, vina_size_threshold(opts));  // some AD4-sized
  EXPECT_GT(hi, vina_size_threshold(opts));  // some Vina-sized
}

TEST(Generator, ReceptorHasOpenCavity) {
  GeneratorOptions opts;
  const mol::Molecule rec = make_receptor("1AIM", opts);
  // No protein atom intrudes into the cavity except lining jitter.
  int inside = 0;
  for (const mol::Atom& a : rec.atoms()) {
    if (a.pos.norm() < opts.cavity_radius) ++inside;
  }
  EXPECT_LT(inside, rec.atom_count() / 20);
}

TEST(Generator, HgSubsetIsDeterministicAndSmall) {
  GeneratorOptions opts;
  int flagged = 0;
  for (const std::string& code : table2_receptors()) {
    if (receptor_has_hg(code, opts)) {
      ++flagged;
      EXPECT_TRUE(make_receptor(code, opts).contains_element(mol::Element::Hg));
    }
  }
  EXPECT_GT(flagged, 0);
  EXPECT_LT(flagged, 24);  // ~3% nominal of 238, generous upper bound
}

TEST(Generator, LigandsAreDockablePreparable) {
  for (const std::string& code : table3_ligands()) {
    mol::Molecule lig = make_ligand(code);
    EXPECT_GE(lig.heavy_atom_count(), 8);
    // Full preparation must succeed: typing, charges, torsion tree, PDBQT.
    const mol::PreparedLigand prep = mol::prepare_ligand(std::move(lig));
    EXPECT_GE(prep.torsions.torsion_count(), 0);
    EXPECT_FALSE(prep.pdbqt.empty());
  }
}

TEST(Generator, LigandsHaveReasonableBondLengths) {
  mol::Molecule lig = make_ligand("0E6");
  for (const mol::Bond& b : lig.bonds()) {
    const double d = mol::distance(lig.atom(b.a).pos, lig.atom(b.b).pos);
    EXPECT_GT(d, 0.7) << "bond " << b.a << "-" << b.b;
    EXPECT_LT(d, 2.2) << "bond " << b.a << "-" << b.b;
  }
}

TEST(Generator, LigandsSitInTheirOwnFrame) {
  // SDF depositions are tens of Å away from the receptor frame origin
  // (this is what makes AD4's reference RMSD large, as in Table 3).
  const mol::Molecule lig = make_ligand("042");
  EXPECT_GT(lig.center().norm(), 30.0);
}

TEST(Generator, StagedFilesParseBack) {
  vfs::SharedFileSystem fs;
  const int staged = stage_dataset(fs, "/exp", {"2HHN", "1HUC"}, {"042"});
  EXPECT_EQ(staged, 3);
  const mol::Molecule rec = mol::read_pdb(fs.read("/exp/input/2HHN.pdb"), "2HHN");
  EXPECT_GT(rec.atom_count(), 50);
  const mol::Molecule lig = mol::read_sdf(fs.read("/exp/input/042.sdf"), "042");
  EXPECT_GT(lig.atom_count(), 6);
  EXPECT_GT(lig.bond_count(), 6);
}

TEST(Generator, PairsRelationShape) {
  GeneratorOptions opts;
  const wf::Relation rel = build_pairs_relation({"2HHN", "1HUC"}, {"042", "074"},
                                                "/exp", 0, opts);
  ASSERT_EQ(rel.size(), 4u);
  const wf::Tuple& first = rel.tuples()[0];
  // Ligand-major order: all receptors for ligand 042 first.
  EXPECT_EQ(first.require("ligand"), "042");
  EXPECT_EQ(first.require("pair"), "042_2HHN");
  EXPECT_EQ(first.require("receptor_file"), "/exp/input/2HHN.pdb");
  EXPECT_TRUE(first.require("engine") == "ad4" ||
              first.require("engine") == "vina");
  EXPECT_GT(first.get_double("workload", 0.0), 0.0);
}

TEST(Generator, PairsRelationHonoursLimit) {
  const wf::Relation rel = build_pairs_relation(
      table2_receptors(), table2_ligands(), "/exp", 1000);
  EXPECT_EQ(rel.size(), 1000u);
  // First 1000 pairs = 238 receptors x ligands {042, 074, 0D6, 0E6} + 48
  // of the fifth; the Table 3 analysis uses the first four ligands.
  std::set<std::string> ligands;
  for (std::size_t i = 0; i < 952; ++i) {
    ligands.insert(rel.tuples()[i].require("ligand"));
  }
  EXPECT_EQ(ligands, std::set<std::string>({"042", "074", "0D6", "0E6"}));
}

TEST(Generator, EngineRoutingMatchesThreshold) {
  GeneratorOptions opts;
  const wf::Relation rel = build_pairs_relation(table2_receptors(), {"042"},
                                                "/exp", 0, opts);
  for (const wf::Tuple& t : rel.tuples()) {
    const int residues = std::stoi(t.require("residues"));
    const std::string expected =
        residues > vina_size_threshold(opts) ? "vina" : "ad4";
    EXPECT_EQ(t.require("engine"), expected) << t.require("receptor");
  }
}

// Gasteiger's electronegativity polynomials are fitted over ionic charges
// in [-1, +1]. Some generated receptors hold clusters of near-coincident
// atoms whose perceived bond graph gives single atoms dozens of bonds;
// the charges must still stay physical, on every Table 2 receptor (the
// Hg ones prepared without the Hg rejection).
TEST(Generator, ReceptorChargesStayWithinOneElementaryCharge) {
  mol::ReceptorPrepareOptions popts;
  popts.reject_unparameterised_atoms = false;
  double max_abs = 0.0;
  for (const std::string& code : data::table2_receptors()) {
    const mol::PreparedReceptor rec = mol::prepare_receptor(
        mol::read_pdb(mol::write_pdb(data::make_receptor(code)), code), popts);
    for (const mol::Atom& a : rec.molecule.atoms()) {
      max_abs = std::max(max_abs, std::abs(a.partial_charge));
      ASSERT_LE(std::abs(a.partial_charge), 1.0) << code << " atom " << a.name;
    }
  }
  EXPECT_GT(max_abs, 0.1);
}

}  // namespace
}  // namespace scidock::data
