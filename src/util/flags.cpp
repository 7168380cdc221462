#include "util/flags.hpp"

#include <sstream>
#include <stdexcept>

namespace score::util {

namespace {
const char* kind_name(int kind) {
  switch (kind) {
    case 0: return "string";
    case 1: return "int";
    case 2: return "double";
    case 3: return "bool";
  }
  return "?";
}
}  // namespace

void Flags::add_string(const std::string& name, std::string default_value,
                       std::string help) {
  entries_[name] = Entry{Kind::kString, default_value, std::move(default_value),
                         std::move(help)};
}

void Flags::add_int(const std::string& name, long long default_value,
                    std::string help) {
  const std::string s = std::to_string(default_value);
  entries_[name] = Entry{Kind::kInt, s, s, std::move(help)};
}

void Flags::add_double(const std::string& name, double default_value,
                       std::string help) {
  std::ostringstream os;
  os << default_value;
  entries_[name] = Entry{Kind::kDouble, os.str(), os.str(), std::move(help)};
}

void Flags::add_bool(const std::string& name, bool default_value,
                     std::string help) {
  const std::string s = default_value ? "true" : "false";
  entries_[name] = Entry{Kind::kBool, s, s, std::move(help)};
}

void Flags::set_value(const std::string& name, const std::string& value) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::invalid_argument("unknown flag --" + name);
  }
  Entry& e = it->second;
  switch (e.kind) {
    case Kind::kInt: {
      std::size_t pos = 0;
      try {
        (void)std::stoll(value, &pos);
      } catch (const std::exception&) {
        pos = std::string::npos;
      }
      if (pos != value.size() || value.empty()) {
        throw std::invalid_argument("flag --" + name + " expects an integer, got '" +
                                    value + "'");
      }
      break;
    }
    case Kind::kDouble: {
      std::size_t pos = 0;
      try {
        (void)std::stod(value, &pos);
      } catch (const std::exception&) {
        pos = std::string::npos;
      }
      if (pos != value.size() || value.empty()) {
        throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                                    value + "'");
      }
      break;
    }
    case Kind::kBool: {
      if (value != "true" && value != "false") {
        throw std::invalid_argument("flag --" + name +
                                    " expects true/false, got '" + value + "'");
      }
      break;
    }
    case Kind::kString:
      break;
  }
  e.value = value;
  e.set_by_user = true;
}

bool Flags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return false;
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument '" + arg + "'");
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      set_value(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    auto it = entries_.find(arg);
    if (it == entries_.end()) {
      throw std::invalid_argument("unknown flag --" + arg);
    }
    if (it->second.kind == Kind::kBool) {
      it->second.value = "true";  // bare boolean flag
      it->second.set_by_user = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("flag --" + arg + " is missing its value");
    }
    set_value(arg, argv[++i]);
  }
  return true;
}

const Flags::Entry& Flags::lookup(const std::string& name, Kind kind) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::logic_error("flag --" + name + " was never registered");
  }
  if (it->second.kind != kind) {
    throw std::logic_error("flag --" + name + " is not of type " +
                           kind_name(static_cast<int>(kind)));
  }
  return it->second;
}

std::string Flags::get_string(const std::string& name) const {
  return lookup(name, Kind::kString).value;
}

long long Flags::get_int(const std::string& name) const {
  return std::stoll(lookup(name, Kind::kInt).value);
}

std::size_t Flags::get_count(const std::string& name) const {
  const long long value = get_int(name);
  if (value < 0) {
    throw std::invalid_argument("flag --" + name +
                                " expects a count >= 0, got " +
                                std::to_string(value));
  }
  return static_cast<std::size_t>(value);
}

double Flags::get_double(const std::string& name) const {
  return std::stod(lookup(name, Kind::kDouble).value);
}

bool Flags::get_bool(const std::string& name) const {
  return lookup(name, Kind::kBool).value == "true";
}

bool Flags::is_set(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::logic_error("flag --" + name + " was never registered");
  }
  return it->second.set_by_user;
}

std::string Flags::help(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [--flag value ...]\n\nflags:\n";
  for (const auto& [name, e] : entries_) {
    os << "  --" << name << " (" << kind_name(static_cast<int>(e.kind))
       << ", default " << e.default_value << ")\n      " << e.help << "\n";
  }
  return os.str();
}

}  // namespace score::util
