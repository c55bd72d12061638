Widget* g_widget = nullptr;
