#include "io/vtk_writer.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "basis/dubiner.hpp"
#include "io/atomic_file.hpp"

namespace tsg {

namespace {

void writeHeader(std::ostream& out, const std::string& title) {
  out << "# vtk DataFile Version 3.0\n" << title << "\nASCII\n";
}

void writeTetGrid(std::ostream& out, const Mesh& mesh) {
  out << "DATASET UNSTRUCTURED_GRID\n";
  out << "POINTS " << mesh.vertices.size() << " double\n";
  for (const auto& v : mesh.vertices) {
    out << v[0] << " " << v[1] << " " << v[2] << "\n";
  }
  const int n = mesh.numElements();
  out << "CELLS " << n << " " << 5 * n << "\n";
  for (const auto& e : mesh.elements) {
    out << "4 " << e.vertices[0] << " " << e.vertices[1] << " "
        << e.vertices[2] << " " << e.vertices[3] << "\n";
  }
  out << "CELL_TYPES " << n << "\n";
  for (int i = 0; i < n; ++i) {
    out << "10\n";  // VTK_TETRA
  }
}

}  // namespace

void writeVtkMesh(const std::string& path, const Mesh& mesh,
                  const std::map<std::string, std::vector<real>>& cellData) {
  std::ostringstream out;
  writeHeader(out, "tsunamigen mesh");
  writeTetGrid(out, mesh);
  if (!cellData.empty()) {
    out << "CELL_DATA " << mesh.numElements() << "\n";
    for (const auto& [name, values] : cellData) {
      if (static_cast<int>(values.size()) != mesh.numElements()) {
        throw std::invalid_argument("writeVtkMesh: field size mismatch: " +
                                    name);
      }
      out << "SCALARS " << name << " double 1\nLOOKUP_TABLE default\n";
      for (real v : values) {
        out << v << "\n";
      }
    }
  }
  atomicWriteFile(path, out.str());  // throws IoError naming the path
}

std::map<std::string, std::vector<real>> wavefieldCellData(
    const Simulation& sim) {
  static const char* kNames[kNumQuantities] = {
      "sxx", "syy", "szz", "sxy", "syz", "sxz", "vx", "vy", "vz"};
  const int n = sim.mesh().numElements();
  std::map<std::string, std::vector<real>> fields;
  std::vector<real>* column[kNumQuantities];
  for (int q = 0; q < kNumQuantities; ++q) {
    column[q] = &fields[kNames[q]];
    column[q]->resize(n);
  }
  auto& pressure = fields["pressure"];
  pressure.resize(n);
  // Centroid basis values, tabulated once; accumulated l-ascending as in
  // Simulation::evaluate, so every cell value matches it bitwise.
  const int degree = sim.config().degree;
  const int nb = basisSize(degree);
  std::vector<real> phi(nb);
  dubinerTetAll(degree, {0.25, 0.25, 0.25}, phi.data());
  const real* dofs = sim.dofsData().data();
  for (int e = 0; e < n; ++e) {
    const real* dq = dofs + static_cast<std::size_t>(e) * nb * kNumQuantities;
    real v[kNumQuantities] = {};
    for (int l = 0; l < nb; ++l) {
      for (int q = 0; q < kNumQuantities; ++q) {
        v[q] += phi[l] * dq[l * kNumQuantities + q];
      }
    }
    for (int q = 0; q < kNumQuantities; ++q) {
      (*column[q])[e] = v[q];
    }
    pressure[e] = -(v[kSxx] + v[kSyy] + v[kSzz]) / 3.0;
  }
  return fields;
}

void writeVtkWavefield(const std::string& path, const Simulation& sim) {
  writeVtkMesh(path, sim.mesh(), wavefieldCellData(sim));
}

void writeVtkSurface(const std::string& path,
                     const std::vector<SurfaceSample>& samples) {
  std::ostringstream out;
  writeHeader(out, "tsunamigen sea surface");
  out << "DATASET POLYDATA\n";
  out << "POINTS " << samples.size() << " double\n";
  for (const auto& s : samples) {
    out << s.x << " " << s.y << " " << s.eta << "\n";
  }
  out << "VERTICES " << samples.size() << " " << 2 * samples.size() << "\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out << "1 " << i << "\n";
  }
  out << "POINT_DATA " << samples.size() << "\n";
  out << "SCALARS eta double 1\nLOOKUP_TABLE default\n";
  for (const auto& s : samples) {
    out << s.eta << "\n";
  }
  atomicWriteFile(path, out.str());  // throws IoError naming the path
}

}  // namespace tsg
