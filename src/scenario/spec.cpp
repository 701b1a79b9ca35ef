#include "scenario/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>

#include "common/errors.hpp"

namespace tsg {

namespace {

[[noreturn]] void fail(const std::string& msg) { throw ConfigError(msg); }

/// Every section the DSL understands; anything else in a scenario file
/// is a typo and must not be silently ignored.
const std::set<std::string>& knownSections() {
  static const std::set<std::string> names = {
      "scenario",   "mesh.x",        "mesh.y",
      "mesh.z",     "bathymetry",    "bathymetry.feature",
      "material",   "boundary",      "fault",
      "fault.segment", "fault.nucleation", "source",
      "receiver",   "solver"};
  return names;
}

void rejectUnknownKeys(const ConfigSection& sec) {
  const auto unused = sec.unusedKeys();
  if (!unused.empty()) {
    fail("unknown key " + sec.path() + "." + *unused.begin());
  }
}

std::vector<AxisSegmentSpec> parseAxis(const ConfigFile& cfg,
                                       const std::string& axis) {
  std::vector<AxisSegmentSpec> segs;
  for (const auto& sec : cfg.sections("mesh." + axis)) {
    AxisSegmentSpec s;
    const std::string type = sec.getString("type", "uniform");
    if (type == "uniform") {
      s.kind = AxisSegmentSpec::Kind::kUniform;
      s.lo = sec.requireNumber("lo");
      s.hi = sec.requireNumber("hi");
      s.cells = sec.requireInt("cells");
      if (s.cells < 1) {
        fail(sec.path() + ".cells must be >= 1");
      }
    } else if (type == "graded") {
      s.kind = AxisSegmentSpec::Kind::kGraded;
      s.lo = sec.requireNumber("lo");
      s.hi = sec.requireNumber("hi");
      s.uniformLo = sec.requireNumber("uniform_lo");
      s.uniformHi = sec.requireNumber("uniform_hi");
      s.h = sec.requireNumber("h");
      s.growth = sec.getNumber("growth", 1.4);
      s.maxSpacing = sec.requireNumber("max_spacing");
      if (!(s.h > 0)) {
        fail(sec.path() + ".h must be > 0");
      }
      if (!(s.growth > 1)) {
        fail(sec.path() + ".growth must be > 1");
      }
      if (s.maxSpacing < s.h) {
        fail(sec.path() + ".max_spacing must be >= h");
      }
      if (!(s.lo <= s.uniformLo && s.uniformLo < s.uniformHi &&
            s.uniformHi <= s.hi)) {
        fail(sec.path() +
             ": need lo <= uniform_lo < uniform_hi <= hi");
      }
    } else {
      fail(sec.path() + ".type must be uniform | graded (got '" + type +
           "')");
    }
    if (!(s.hi > s.lo)) {
      fail(sec.path() + ": hi must be > lo");
    }
    if (!segs.empty() && segs.back().hi != s.lo) {
      fail(sec.path() + ".lo must equal the previous segment's hi (" +
           std::to_string(segs.back().hi) + ") to keep the axis contiguous");
    }
    rejectUnknownKeys(sec);
    segs.push_back(s);
  }
  if (segs.empty()) {
    fail("scenario config: missing [[mesh." + axis + "]] section");
  }
  return segs;
}

BathymetrySpec parseBathymetry(const ConfigFile& cfg) {
  BathymetrySpec b;
  if (cfg.hasSection("bathymetry")) {
    const auto sec = cfg.uniqueSection("bathymetry");
    b.baseDepth = sec.requireNumber("base_depth");
    const std::string combine = sec.getString("combine", "max");
    if (combine == "max") {
      b.combine = BathymetryCombine::kMax;
    } else if (combine == "sum") {
      b.combine = BathymetryCombine::kSum;
    } else {
      fail(sec.path() + ".combine must be max | sum (got '" + combine + "')");
    }
    b.deform = sec.getBool("deform", false);
    if (b.deform) {
      b.deformZBottom = sec.requireNumber("deform_z_bottom");
      b.deformReference = sec.requireNumber("deform_reference");
      b.deformZTop = sec.getNumber("deform_z_top", 0.0);
      if (!(b.deformZBottom < b.deformReference &&
            b.deformReference < b.deformZTop)) {
        fail(sec.path() +
             ": need deform_z_bottom < deform_reference < deform_z_top");
      }
    }
    rejectUnknownKeys(sec);
  }
  for (const auto& sec : cfg.sections("bathymetry.feature")) {
    BathymetryFeature f;
    const std::string type = sec.requireString("type");
    f.amplitude = sec.requireNumber("amplitude");
    if (type == "shelf") {
      f.kind = BathymetryFeature::Kind::kShelf;
      f.start = sec.requireNumber("start");
      f.length = sec.requireNumber("length");
      if (!(f.length > 0)) {
        fail(sec.path() + ".length must be > 0");
      }
    } else if (type == "bay") {
      f.kind = BathymetryFeature::Kind::kBay;
      f.halfWidth = sec.requireNumber("half_width");
      f.southEnd = sec.requireNumber("south_end");
      f.flankRamp = sec.requireNumber("flank_ramp");
      f.centerX = sec.getNumber("center_x", 0.0);
      if (!(f.halfWidth > 0)) {
        fail(sec.path() + ".half_width must be > 0");
      }
      if (!(f.flankRamp > 0)) {
        fail(sec.path() + ".flank_ramp must be > 0");
      }
    } else if (type == "ridge") {
      f.kind = BathymetryFeature::Kind::kRidge;
      f.halfWidth = sec.requireNumber("half_width");
      f.centerX = sec.getNumber("center_x", 0.0);
      if (!(f.halfWidth > 0)) {
        fail(sec.path() + ".half_width must be > 0");
      }
    } else if (type == "seamount") {
      f.kind = BathymetryFeature::Kind::kSeamount;
      f.centerX = sec.getNumber("center_x", 0.0);
      f.centerY = sec.getNumber("center_y", 0.0);
      f.sigma = sec.requireNumber("sigma");
      if (!(f.sigma > 0)) {
        fail(sec.path() + ".sigma must be > 0");
      }
    } else {
      fail(sec.path() + ".type must be shelf | bay | ridge | seamount (got '" +
           type + "')");
    }
    rejectUnknownKeys(sec);
    b.features.push_back(f);
  }
  return b;
}

std::vector<MaterialSpec> parseMaterials(const ConfigFile& cfg) {
  std::vector<MaterialSpec> mats;
  int acousticCount = 0;
  for (const auto& sec : cfg.sections("material")) {
    MaterialSpec m;
    m.name = sec.getString("name",
                           "material" + std::to_string(mats.size()));
    m.rho = sec.requireNumber("rho");
    m.cp = sec.requireNumber("cp");
    m.cs = sec.getNumber("cs", 0.0);
    if (!(m.rho > 0)) {
      fail(sec.path() + ".rho must be > 0");
    }
    if (!(m.cp > 0)) {
      fail(sec.path() + ".cp must be > 0");
    }
    if (m.cs < 0) {
      fail(sec.path() + ".cs must be >= 0");
    }
    m.acoustic = m.cs == 0;
    if (m.acoustic) {
      ++acousticCount;
    }
    if (sec.has("bottom_z")) {
      if (m.acoustic) {
        fail(sec.path() +
             ".bottom_z is only meaningful for solid layers (the acoustic "
             "layer is bounded by the bathymetry)");
      }
      m.hasBottomZ = true;
      m.bottomZ = sec.requireNumber("bottom_z");
    }
    rejectUnknownKeys(sec);
    mats.push_back(m);
  }
  if (mats.empty()) {
    fail("scenario config: at least one [[material]] section is required");
  }
  if (acousticCount > 1) {
    fail("scenario config: at most one acoustic [[material]] (cs = 0) is "
         "supported");
  }
  if (acousticCount == static_cast<int>(mats.size())) {
    fail("scenario config: at least one solid [[material]] (cs > 0) is "
         "required");
  }
  // Layered solids: bottom_z must be strictly decreasing in declaration
  // order (layers are declared top-down), and the deepest solid is the
  // fallback so it must not declare one.
  real prev = 0;
  bool first = true;
  for (std::size_t i = 0; i < mats.size(); ++i) {
    if (mats[i].acoustic || !mats[i].hasBottomZ) {
      continue;
    }
    if (!first && mats[i].bottomZ >= prev) {
      fail("material[" + std::to_string(i) +
           "].bottom_z must decrease from layer to layer (solids are "
           "declared top-down)");
    }
    prev = mats[i].bottomZ;
    first = false;
  }
  return mats;
}

BoundaryType parseBoundaryKind(const ConfigSection& sec,
                               const std::string& key,
                               const std::string& dflt) {
  const std::string v = sec.getString(key, dflt);
  if (v == "gravity") {
    return BoundaryType::kGravityFreeSurface;
  }
  if (v == "free") {
    return BoundaryType::kFreeSurface;
  }
  if (v == "rigid") {
    return BoundaryType::kRigidWall;
  }
  if (v == "absorbing") {
    return BoundaryType::kAbsorbing;
  }
  fail(sec.path() + "." + key +
       " must be gravity | free | rigid | absorbing (got '" + v + "')");
}

BoundarySpec parseBoundary(const ConfigFile& cfg) {
  BoundarySpec b;
  if (!cfg.hasSection("boundary")) {
    return b;
  }
  const auto sec = cfg.uniqueSection("boundary");
  b.top = parseBoundaryKind(sec, "top", "gravity");
  b.sides = parseBoundaryKind(sec, "sides", "absorbing");
  b.bottom = parseBoundaryKind(sec, "bottom", "absorbing");
  rejectUnknownKeys(sec);
  return b;
}

/// Parse a kinematic slip CSV ([fault] slip_file) into ramp nucleation
/// patches.  Format: a header line
///   center_y,center_z,radius,tau,rise_time,onset[,segment]
/// followed by one sub-event per row (comments with #, blank lines
/// skipped).  Rows become [[fault.nucleation]] ramp patches in order, so
/// a Vogl-LeVeque-style subfault sequence can be generated by external
/// tooling instead of hand-writing N sections.  All errors are
/// ConfigErrors naming the file and row.
std::vector<NucleationSpec> parseSlipFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    fail("fault.slip_file: cannot open '" + path + "'");
  }
  auto splitCsv = [](const std::string& line) {
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (;;) {
      std::size_t comma = line.find(',', start);
      if (comma == std::string::npos) comma = line.size();
      std::size_t lo = start, hi = comma;
      while (lo < hi && std::isspace(static_cast<unsigned char>(line[lo])))
        ++lo;
      while (hi > lo && std::isspace(static_cast<unsigned char>(line[hi - 1])))
        --hi;
      fields.push_back(line.substr(lo, hi - lo));
      if (comma == line.size()) break;
      start = comma + 1;
    }
    return fields;
  };

  std::vector<NucleationSpec> patches;
  std::vector<std::string> header;
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;

    const std::vector<std::string> fields = splitCsv(line);
    if (header.empty()) {
      header = fields;
      const std::vector<std::string> required = {
          "center_y", "center_z", "radius", "tau", "rise_time", "onset"};
      if (header.size() < required.size() ||
          header.size() > required.size() + 1 ||
          (header.size() == required.size() + 1 &&
           header.back() != "segment")) {
        fail("fault.slip_file '" + path +
             "': header must be center_y,center_z,radius,tau,rise_time,"
             "onset[,segment]");
      }
      for (std::size_t i = 0; i < required.size(); ++i) {
        if (header[i] != required[i]) {
          fail("fault.slip_file '" + path + "': header column " +
               std::to_string(i + 1) + " must be '" + required[i] +
               "' (got '" + header[i] + "')");
        }
      }
      continue;
    }

    const std::string where =
        "fault.slip_file '" + path + "' line " + std::to_string(lineNo);
    if (fields.size() != header.size()) {
      fail(where + ": expected " + std::to_string(header.size()) +
           " fields, got " + std::to_string(fields.size()));
    }
    auto num = [&](std::size_t i) {
      const std::string& s = fields[i];
      char* end = nullptr;
      const double v = std::strtod(s.c_str(), &end);
      if (s.empty() || end != s.c_str() + s.size() || !std::isfinite(v)) {
        fail(where + ": '" + header[i] + "' is not a number (got '" + s +
             "')");
      }
      return static_cast<real>(v);
    };
    NucleationSpec n;
    n.type = NucleationSpec::Type::kRamp;
    n.centerY = num(0);
    n.centerZ = num(1);
    n.radius = num(2);
    n.tau = num(3);
    n.riseTime = num(4);
    n.onset = num(5);
    if (header.size() == 7) {
      const real seg = num(6);
      n.segment = static_cast<int>(seg);
      if (seg != n.segment || n.segment < 0) {
        fail(where + ": 'segment' must be a non-negative integer");
      }
    }
    patches.push_back(n);
  }
  if (header.empty()) {
    fail("fault.slip_file '" + path + "': empty file (no header row)");
  }
  if (patches.empty()) {
    fail("fault.slip_file '" + path + "': no sub-event rows");
  }
  return patches;
}

FaultSpec parseFault(const ConfigFile& cfg) {
  FaultSpec f;
  if (!cfg.hasSection("fault")) {
    if (cfg.hasSection("fault.segment") || cfg.hasSection("fault.nucleation")) {
      fail("scenario config: [[fault.segment]] / [[fault.nucleation]] require "
           "a [fault] section");
    }
    return f;
  }
  f.present = true;
  const auto sec = cfg.uniqueSection("fault");
  const std::string law = sec.requireString("law");
  f.sigmaN = sec.requireNumber("sigma_n");
  f.tauBackground = sec.requireNumber("tau_background");
  const std::string load = sec.getString("load", "strike");
  if (load == "updip") {
    f.load = FaultSpec::Load::kUpdip;
  } else if (load == "strike") {
    f.load = FaultSpec::Load::kStrike;
    f.strikeSign = sec.getNumber("strike_sign", -1.0);
    if (f.strikeSign != 1.0 && f.strikeSign != -1.0) {
      fail(sec.path() + ".strike_sign must be 1 or -1");
    }
  } else {
    fail(sec.path() + ".load must be updip | strike (got '" + load + "')");
  }
  if (law == "lsw") {
    f.law = FrictionLawType::kLinearSlipWeakening;
    f.muS = sec.requireNumber("mu_s");
    f.muD = sec.requireNumber("mu_d");
    f.dC = sec.requireNumber("d_c");
    if (!(f.dC > 0)) {
      fail(sec.path() + ".d_c must be > 0");
    }
    if (sec.has("cohesion_peak")) {
      f.cohesionExp = true;
      f.cohesionPeak = sec.requireNumber("cohesion_peak");
      f.cohesionDecay = sec.requireNumber("cohesion_decay");
      f.cohesionRefZ = sec.requireNumber("cohesion_ref_z");
      if (!(f.cohesionDecay > 0)) {
        fail(sec.path() + ".cohesion_decay must be > 0");
      }
    } else {
      f.cohesion = sec.getNumber("cohesion", 0.0);
    }
  } else if (law == "rs") {
    f.law = FrictionLawType::kRateStateFastVW;
    f.rsA = sec.requireNumber("rs_a");
    f.rsB = sec.requireNumber("rs_b");
    f.rsL = sec.requireNumber("rs_L");
    f.rsF0 = sec.requireNumber("rs_f0");
    f.rsV0 = sec.requireNumber("rs_v0");
    f.rsFw = sec.requireNumber("rs_fw");
    f.rsVw = sec.requireNumber("rs_vw");
  } else {
    fail(sec.path() + ".law must be lsw | rs (got '" + law + "')");
  }
  f.initialSlipRate = sec.getNumber("initial_slip_rate", 1e-16);
  if (!(f.initialSlipRate > 0)) {
    fail(sec.path() + ".initial_slip_rate must be > 0");
  }
  // Kinematic slip CSV; relative paths resolve against the config file's
  // own directory, so presets can ship their slip models alongside.
  std::string slipFile = sec.getString("slip_file", "");
  if (!slipFile.empty() && slipFile[0] != '/' && !cfg.sourceDir().empty()) {
    slipFile = cfg.sourceDir() + "/" + slipFile;
  }
  rejectUnknownKeys(sec);

  const auto segSecs = cfg.sections("fault.segment");
  for (const auto& ss : segSecs) {
    FaultSegmentSpec s;
    const std::string plane = ss.requireString("plane");
    if (plane == "x") {
      s.plane = FaultSegmentSpec::Plane::kX;
    } else if (plane == "x-z") {
      s.plane = FaultSegmentSpec::Plane::kXZ;
    } else {
      fail(ss.path() + ".plane must be x | x-z (got '" + plane + "')");
    }
    s.offset = ss.requireNumber("offset");
    s.yMin = ss.requireNumber("y_min");
    s.yMax = ss.requireNumber("y_max");
    s.zMin = ss.requireNumber("z_min");
    s.zMax = ss.requireNumber("z_max");
    s.tol = ss.getNumber("tol", 1e-3);
    if (!(s.yMin < s.yMax)) {
      fail(ss.path() + ": y_min must be < y_max");
    }
    if (!(s.zMin < s.zMax)) {
      fail(ss.path() + ": z_min must be < z_max");
    }
    if (!(s.tol > 0)) {
      fail(ss.path() + ".tol must be > 0");
    }
    rejectUnknownKeys(ss);
    f.segments.push_back(s);
  }
  if (f.segments.empty()) {
    fail("scenario config: [fault] requires at least one [[fault.segment]]");
  }
  // Overlapping segments would double-tag mesh faces (ambiguous rupture
  // geometry); reject coplanar pieces whose windows intersect.
  for (std::size_t i = 0; i < f.segments.size(); ++i) {
    for (std::size_t j = i + 1; j < f.segments.size(); ++j) {
      const auto& a = f.segments[i];
      const auto& b = f.segments[j];
      if (a.plane != b.plane) {
        continue;
      }
      if (std::abs(a.offset - b.offset) > a.tol + b.tol) {
        continue;
      }
      const bool yOverlap = a.yMin < b.yMax && b.yMin < a.yMax;
      const bool zOverlap = a.zMin <= b.zMax && b.zMin <= a.zMax;
      if (yOverlap && zOverlap) {
        fail("fault.segment[" + std::to_string(i) + "] and fault.segment[" +
             std::to_string(j) +
             "] overlap (same plane, intersecting y/z windows)");
      }
    }
  }

  real prevOnset = 0;
  bool firstRamp = true;
  const auto nucSecs = cfg.sections("fault.nucleation");
  for (const auto& ns : nucSecs) {
    NucleationSpec n;
    const std::string type = ns.requireString("type");
    if (type == "overstress") {
      n.type = NucleationSpec::Type::kOverstress;
    } else if (type == "ramp") {
      n.type = NucleationSpec::Type::kRamp;
    } else {
      fail(ns.path() + ".type must be overstress | ramp (got '" + type +
           "')");
    }
    n.centerY = ns.requireNumber("center_y");
    n.centerZ = ns.requireNumber("center_z");
    n.radius = ns.requireNumber("radius");
    n.tau = ns.requireNumber("tau");
    if (!(n.radius > 0)) {
      fail(ns.path() + ".radius must be > 0");
    }
    if (n.type == NucleationSpec::Type::kRamp) {
      n.riseTime = ns.requireNumber("rise_time");
      if (!(n.riseTime > 0)) {
        fail(ns.path() + ".rise_time must be > 0");
      }
      n.onset = ns.getNumber("onset", 0.0);
      if (n.onset < 0) {
        fail(ns.path() + ".onset must be >= 0");
      }
      // Kinematic multi-subfault sources list their sub-events in rupture
      // order; a non-monotone onset sequence is almost always a data-entry
      // error in a generated sweep file.
      if (!firstRamp && n.onset < prevOnset) {
        fail(ns.path() + ".onset (" + std::to_string(n.onset) +
             ") must be non-decreasing across [[fault.nucleation]] patches "
             "(previous onset " + std::to_string(prevOnset) + ")");
      }
      prevOnset = n.onset;
      firstRamp = false;
    }
    n.segment = ns.getInt("segment", 0);
    if (n.segment < 0 || n.segment >= static_cast<int>(f.segments.size())) {
      fail(ns.path() + ".segment must be in 0.." +
           std::to_string(f.segments.size() - 1));
    }
    const auto& host = f.segments[n.segment];
    n.dzScale = host.plane == FaultSegmentSpec::Plane::kXZ ? 2.0 : 1.0;
    if (!(n.centerY > host.yMin && n.centerY < host.yMax)) {
      fail(ns.path() + ".center_y (" + std::to_string(n.centerY) +
           ") lies outside fault.segment[" + std::to_string(n.segment) +
           "]'s y window [" + std::to_string(host.yMin) + ", " +
           std::to_string(host.yMax) + "]");
    }
    if (!(n.centerZ >= host.zMin && n.centerZ <= host.zMax)) {
      fail(ns.path() + ".center_z (" + std::to_string(n.centerZ) +
           ") lies outside fault.segment[" + std::to_string(n.segment) +
           "]'s z window [" + std::to_string(host.zMin) + ", " +
           std::to_string(host.zMax) + "]");
    }
    rejectUnknownKeys(ns);
    f.nucleation.push_back(n);
  }

  // CSV sub-events append after the inline patches and share their
  // validation rules (including onset monotonicity continuing from the
  // last inline ramp and the overlap scan below).
  if (!slipFile.empty()) {
    const std::vector<NucleationSpec> rows = parseSlipFile(slipFile);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      NucleationSpec n = rows[r];
      const std::string where = "fault.slip_file row " + std::to_string(r);
      if (!(n.radius > 0)) {
        fail(where + ": radius must be > 0");
      }
      if (!(n.riseTime > 0)) {
        fail(where + ": rise_time must be > 0");
      }
      if (n.onset < 0) {
        fail(where + ": onset must be >= 0");
      }
      if (!firstRamp && n.onset < prevOnset) {
        fail(where + ": onset (" + std::to_string(n.onset) +
             ") must be non-decreasing (previous onset " +
             std::to_string(prevOnset) + ")");
      }
      prevOnset = n.onset;
      firstRamp = false;
      if (n.segment < 0 || n.segment >= static_cast<int>(f.segments.size())) {
        fail(where + ": segment must be in 0.." +
             std::to_string(f.segments.size() - 1));
      }
      const auto& host = f.segments[n.segment];
      n.dzScale = host.plane == FaultSegmentSpec::Plane::kXZ ? 2.0 : 1.0;
      if (!(n.centerY > host.yMin && n.centerY < host.yMax)) {
        fail(where + ": center_y (" + std::to_string(n.centerY) +
             ") lies outside fault.segment[" + std::to_string(n.segment) +
             "]'s y window [" + std::to_string(host.yMin) + ", " +
             std::to_string(host.yMax) + "]");
      }
      if (!(n.centerZ >= host.zMin && n.centerZ <= host.zMax)) {
        fail(where + ": center_z (" + std::to_string(n.centerZ) +
             ") lies outside fault.segment[" + std::to_string(n.segment) +
             "]'s z window [" + std::to_string(host.zMin) + ", " +
             std::to_string(host.zMax) + "]");
      }
      f.nucleation.push_back(n);
    }
  }
  // Patch supports must not overlap: a fault point driven by two patches
  // would superpose their forcings in an order-dependent way.  The ramp
  // forcing extends to 1.5 r (the smoothstep support), the overstress
  // patch to r.
  for (std::size_t i = 0; i < f.nucleation.size(); ++i) {
    for (std::size_t j = i + 1; j < f.nucleation.size(); ++j) {
      const auto& a = f.nucleation[i];
      const auto& b = f.nucleation[j];
      const real ra =
          a.type == NucleationSpec::Type::kRamp ? 1.5 * a.radius : a.radius;
      const real rb =
          b.type == NucleationSpec::Type::kRamp ? 1.5 * b.radius : b.radius;
      const real dy = a.centerY - b.centerY;
      const real dz = a.centerZ - b.centerZ;
      if (std::sqrt(dy * dy + dz * dz) < ra + rb) {
        fail("fault.nucleation[" + std::to_string(i) +
             "] and fault.nucleation[" + std::to_string(j) +
             "] overlap (centers closer than the sum of their support "
             "radii)");
      }
    }
  }
  return f;
}

std::vector<SourceSpec> parseSources(const ConfigFile& cfg) {
  std::vector<SourceSpec> sources;
  for (const auto& sec : cfg.sections("source")) {
    SourceSpec s;
    const std::string type = sec.requireString("type");
    if (type == "pressure_gaussian") {
      s.type = SourceSpec::Type::kPressureGaussian;
      s.center = {sec.requireNumber("center_x"), sec.requireNumber("center_y"),
                  sec.requireNumber("center_z")};
    } else if (type == "eta_gaussian") {
      s.type = SourceSpec::Type::kEtaGaussian;
      s.center = {sec.requireNumber("center_x"), sec.requireNumber("center_y"),
                  0.0};
    } else {
      fail(sec.path() + ".type must be pressure_gaussian | eta_gaussian "
           "(got '" + type + "')");
    }
    s.amplitude = sec.requireNumber("amplitude");
    s.sigma = sec.requireNumber("sigma");
    if (!(s.sigma > 0)) {
      fail(sec.path() + ".sigma must be > 0");
    }
    rejectUnknownKeys(sec);
    sources.push_back(s);
  }
  return sources;
}

}  // namespace

ScenarioSpec loadScenarioSpec(const ConfigFile& cfg) {
  for (const auto& name : cfg.sectionNames()) {
    if (!knownSections().count(name)) {
      fail("unknown section [" + name + "] in scenario config");
    }
  }

  ScenarioSpec spec;
  if (cfg.hasSection("scenario")) {
    const auto sec = cfg.uniqueSection("scenario");
    spec.name = sec.getString("name", "custom");
    rejectUnknownKeys(sec);
  }
  spec.mesh.x = parseAxis(cfg, "x");
  spec.mesh.y = parseAxis(cfg, "y");
  spec.mesh.z = parseAxis(cfg, "z");
  spec.bathymetry = parseBathymetry(cfg);
  spec.materials = parseMaterials(cfg);
  spec.boundary = parseBoundary(cfg);
  spec.fault = parseFault(cfg);
  spec.sources = parseSources(cfg);

  const bool haveAcoustic =
      std::any_of(spec.materials.begin(), spec.materials.end(),
                  [](const MaterialSpec& m) { return m.acoustic; });
  for (std::size_t i = 0; i < spec.sources.size(); ++i) {
    if (spec.sources[i].type == SourceSpec::Type::kPressureGaussian &&
        !haveAcoustic) {
      fail("source[" + std::to_string(i) +
           "]: pressure_gaussian requires an acoustic [[material]]");
    }
    if (spec.sources[i].type == SourceSpec::Type::kEtaGaussian &&
        spec.boundary.top != BoundaryType::kGravityFreeSurface) {
      fail("source[" + std::to_string(i) +
           "]: eta_gaussian requires boundary.top = gravity");
    }
  }

  if (cfg.hasSection("solver")) {
    const auto sec = cfg.uniqueSection("solver");
    spec.gravity = sec.getNumber("gravity", 9.81);
    spec.cflFraction = sec.getNumber("cfl_fraction", 0.0);
    if (spec.gravity < 0) {
      fail(sec.path() + ".gravity must be >= 0");
    }
    if (spec.cflFraction < 0) {
      fail(sec.path() + ".cfl_fraction must be >= 0");
    }
    rejectUnknownKeys(sec);
  }

  // Receivers last: the in-domain check needs the mesh extents.
  const real x0 = spec.mesh.x.front().lo, x1 = spec.mesh.x.back().hi;
  const real y0 = spec.mesh.y.front().lo, y1 = spec.mesh.y.back().hi;
  const real z0 = spec.mesh.z.front().lo, z1 = spec.mesh.z.back().hi;
  const auto recSecs = cfg.sections("receiver");
  for (const auto& sec : recSecs) {
    ScenarioReceiver r;
    r.name = sec.requireString("name");
    r.x = {sec.requireNumber("x"), sec.requireNumber("y"),
           sec.requireNumber("z")};
    if (r.name.empty()) {
      fail(sec.path() + ".name must not be empty");
    }
    for (const auto& other : spec.receivers) {
      if (other.name == r.name) {
        fail(sec.path() + ".name '" + r.name + "' is already used");
      }
    }
    if (r.x[0] < x0 || r.x[0] > x1 || r.x[1] < y0 || r.x[1] > y1 ||
        r.x[2] < z0 || r.x[2] > z1) {
      fail(sec.path() + ": receiver '" + r.name + "' at (" +
           std::to_string(r.x[0]) + ", " + std::to_string(r.x[1]) + ", " +
           std::to_string(r.x[2]) + ") lies outside the mesh box [" +
           std::to_string(x0) + ", " + std::to_string(x1) + "] x [" +
           std::to_string(y0) + ", " + std::to_string(y1) + "] x [" +
           std::to_string(z0) + ", " + std::to_string(z1) + "]");
    }
    rejectUnknownKeys(sec);
    spec.receivers.push_back(r);
  }
  return spec;
}

ScenarioBundle loadPresetScenario(const std::string& path, int degree) {
  const ConfigFile cfg = ConfigFile::load(path);
  if (!cfg.hasSections()) {
    fail("preset " + path +
         ": no scenario sections found (is this a run config?)");
  }
  // Reject run-level keys: a preset describes a scenario, not a run.
  // (Every top-level key is unused because we only read sections.)
  const auto runKeys = cfg.unusedKeys();
  if (!runKeys.empty()) {
    fail("preset " + path + ": run-level key '" + *runKeys.begin() +
         "' is not allowed in a preset (set run options in the config that "
         "references the preset)");
  }
  ScenarioBundle bundle = buildScenario(loadScenarioSpec(cfg), degree);
  if (bundle.name == "custom") {
    // Default the display name to the file stem.
    std::string stem = path;
    const auto slash = stem.find_last_of("/\\");
    if (slash != std::string::npos) {
      stem = stem.substr(slash + 1);
    }
    const auto dotPos = stem.find_last_of('.');
    if (dotPos != std::string::npos) {
      stem = stem.substr(0, dotPos);
    }
    bundle.name = stem;
  }
  return bundle;
}

}  // namespace tsg
