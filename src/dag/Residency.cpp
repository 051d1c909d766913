//===- dag/Residency.cpp - Buffer residency tracking ----------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "dag/Residency.h"

using namespace fcl;
using namespace fcl::dag;

bool fcl::dag::parsePlacement(const std::string &Name, Placement &Out) {
  if (Name == "residency") {
    Out = Placement::Residency;
    return true;
  }
  if (Name == "blind") {
    Out = Placement::Blind;
    return true;
  }
  return false;
}

const char *fcl::dag::placementName(Placement P) {
  switch (P) {
  case Placement::Residency:
    return "residency";
  case Placement::Blind:
    return "blind";
  }
  return "?";
}
